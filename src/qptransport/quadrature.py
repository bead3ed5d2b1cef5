"""Adaptive Gauss-Legendre quadrature for the energy integrals.

Panels are refined by halving; the disagreement between a panel's estimate
and the sum over its two halves serves as the local error gauge.  Semi
infinite tails are mapped to (0, 1] by u = scale / (E - anchor), which
keeps integrands with 1/E^2 decay bounded on the transformed interval.
Integrands must accept and return numpy arrays (they are evaluated on whole
node batches at once).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InputError, NumericalError


@lru_cache(maxsize=16)
def _leggauss(order: int):
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


@dataclass(frozen=True)
class QuadratureResult:
    value: object  # float, or ndarray for vector integrands
    error: float
    evaluations: int
    panels: int
    deepest: int


def _panel_value(func, a: float, b: float, x, w):
    """Gauss-Legendre value of one panel; func may return one value per node
    (scalar integrand) or a (nodes, m) array (m integrands sharing nodes)."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    vals = np.asarray(func(mid + half * x), dtype=float)
    if vals.ndim == 1:
        return half * float(np.dot(w, vals))
    return half * (w @ vals)


def _mag(x) -> float:
    return float(np.max(np.abs(x)))


def adaptive_integrate(func, a: float, b: float, rel_tol: float = 1e-6,
                       abs_tol: float = 0.0, order: int = 16,
                       initial_panels: int = 4, max_depth: int = 22
                       ) -> QuadratureResult:
    """Integrate func over [a, b] to a target relative tolerance.

    Each panel is compared against the sum over its two halves; panels that
    disagree are split, down to max_depth halvings; a panel still
    unconverged there raises NumericalError.

    func may return one value per node, or a (nodes, m) array to integrate
    m functions over shared panels; the refinement then follows the worst
    component and value comes back as an array of length m.
    """
    if not (b > a):
        raise InputError(f"need b > a, got [{a}, {b}]")
    if order < 2:
        raise InputError(f"order must be >= 2, got {order}")
    if initial_panels < 1:
        raise InputError(f"initial_panels must be >= 1, got {initial_panels}")
    x, w = _leggauss(order)

    edges = np.linspace(a, b, initial_panels + 1)
    queue = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        queue.append((float(lo), float(hi), 0, _panel_value(func, lo, hi, x, w)))
    evaluations = (initial_panels) * order

    total = 0.0 * queue[0][3]
    err = 0.0
    panels = 0
    deepest = 0
    # crude overall scale for the relative test, updated as panels settle
    scale_guess = sum(_mag(v) for (_, _, _, v) in queue) + abs_tol
    while queue:
        lo, hi, depth, coarse = queue.pop()
        mid = 0.5 * (lo + hi)
        left = _panel_value(func, lo, mid, x, w)
        right = _panel_value(func, mid, hi, x, w)
        evaluations += 2 * order
        fine = left + right
        disagreement = _mag(fine - coarse)
        budget = (abs_tol + rel_tol * max(scale_guess, _mag(total))) \
            * (hi - lo) / (b - a)
        if disagreement <= budget:
            total += fine
            err += disagreement
            panels += 2
            deepest = max(deepest, depth)
        elif depth >= max_depth:
            raise NumericalError(
                f"quadrature panel [{lo}, {hi}] failed to converge "
                f"at depth {depth} (disagreement {disagreement:.3e}, "
                f"budget {budget:.3e})")
        else:
            queue.append((lo, mid, depth + 1, left))
            queue.append((mid, hi, depth + 1, right))

    return QuadratureResult(value=total, error=err, evaluations=evaluations,
                            panels=panels, deepest=deepest)


def integrate_right_tail(func, e0: float, scale: float = 1.0,
                         **kwargs) -> QuadratureResult:
    """Integral of func over [e0, +infinity).

    Substitutes E = e0 + scale*(1-u)/u, so integrands decaying like 1/E^2
    become bounded on (0, 1].  scale sets the half-mass point e0 + scale.
    """
    if scale <= 0:
        raise InputError(f"scale must be positive, got {scale}")

    def transformed(u):
        u = np.asarray(u, dtype=float)
        e = e0 + scale * (1.0 - u) / u
        vals = np.asarray(func(e), dtype=float)
        jac = scale / u ** 2
        return vals * (jac if vals.ndim == 1 else jac[:, None])

    return adaptive_integrate(transformed, 0.0, 1.0, **kwargs)


def integrate_left_tail(func, e0: float, scale: float = 1.0,
                        **kwargs) -> QuadratureResult:
    """Integral of func over (-infinity, e0]: the right tail of func(-E)
    from -e0, whose nodes -(-e0 + t) equal e0 - t exactly."""
    return integrate_right_tail(lambda e: func(-e), -e0, scale, **kwargs)

