"""Adaptive Gauss-Kronrod quadrature for the energy integrals.

Each panel is evaluated at the 21 Kronrod nodes; the 21-point Kronrod value
is the panel's estimate and its distance to the embedded 10-point Gauss
value serves as the local error gauge (Piessens et al., QUADPACK, Springer
1983).  Panels whose gauge exceeds their share of the tolerance are halved.
Semi infinite tails are mapped to (0, 1] by u = scale / (E - anchor), which
keeps integrands with 1/E^2 decay bounded on the transformed interval.
Integrands must accept and return numpy arrays (they are evaluated on whole
node batches at once).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericalError

#: nonnegative Kronrod nodes on [-1, 1], largest first; the odd-numbered
#: ones (x[1], x[3], ..., x[9]) are the 10-point Gauss nodes
_KRONROD_X = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0])
#: Kronrod weights of those nodes
_KRONROD_W = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821])
#: Gauss weights of x[1], x[3], ..., x[9]
_GAUSS_W = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338])

#: all 21 nodes in increasing order, and the weights of both rules on
#: them (row 0 Kronrod, row 1 Gauss, zero off the Gauss nodes), so one
#: matrix product gives both values
_NODES = np.concatenate([-_KRONROD_X[:-1], _KRONROD_X[::-1]])
_RULES = np.zeros((2, _NODES.size))
_RULES[0] = np.concatenate([_KRONROD_W[:-1], _KRONROD_W[::-1]])
_RULES[1, 1:10:2] = _GAUSS_W
_RULES[1, 11:20:2] = _GAUSS_W[::-1]


@dataclass(frozen=True)
class QuadratureResult:
    value: object  # float, or ndarray for vector integrands
    error: float
    evaluations: int
    panels: int
    deepest: int


def _panel(func, lo: float, hi: float):
    """Kronrod value of [lo, hi] and its gauge |Kronrod - Gauss|; func may
    return one value per node (scalar integrand) or a (nodes, m) array (m
    integrands sharing nodes)."""
    half = 0.5 * (hi - lo)
    vals = np.asarray(func(0.5 * (lo + hi) + half * _NODES), dtype=float)
    kronrod, gauss = half * (_RULES @ vals)
    return kronrod, _mag(kronrod - gauss)


def _mag(x) -> float:
    return float(np.max(np.abs(x)))


def adaptive_integrate(func, a: float, b: float, rel_tol: float = 1e-6,
                       abs_tol: float = 0.0, initial_panels: int = 4,
                       max_depth: int = 22) -> QuadratureResult:
    """Integrate func over [a, b] to a target relative tolerance.

    A panel's Kronrod value is accepted once its gauge is within the
    panel's share of the tolerance; other panels are halved, down to
    max_depth halvings; a panel still unconverged there raises
    NumericalError.

    func may return one value per node, or a (nodes, m) array to integrate
    m functions over shared panels; the refinement then follows the worst
    component and value comes back as an array of length m.
    """
    if not (b > a):
        raise InputError(f"need b > a, got [{a}, {b}]")
    if initial_panels < 1:
        raise InputError(f"initial_panels must be >= 1, got {initial_panels}")

    edges = np.linspace(a, b, initial_panels + 1)
    queue = [(float(lo), float(hi), 0, *_panel(func, lo, hi))
             for lo, hi in zip(edges[:-1], edges[1:])]
    evaluations = initial_panels * _NODES.size

    total = 0.0 * queue[0][3]
    err = 0.0
    panels = 0
    deepest = 0
    # crude overall scale for the relative test, updated as panels settle
    scale_guess = sum(_mag(v) for (_, _, _, v, _) in queue) + abs_tol
    while queue:
        lo, hi, depth, value, gauge = queue.pop()
        budget = (abs_tol + rel_tol * max(scale_guess, _mag(total))) \
            * (hi - lo) / (b - a)
        if gauge <= budget:
            total += value
            err += gauge
            panels += 1
            deepest = max(deepest, depth)
        elif depth >= max_depth:
            raise NumericalError(
                f"quadrature panel [{lo}, {hi}] failed to converge "
                f"at depth {depth} (error estimate {gauge:.3e}, "
                f"budget {budget:.3e})")
        else:
            mid = 0.5 * (lo + hi)
            queue.append((lo, mid, depth + 1, *_panel(func, lo, mid)))
            queue.append((mid, hi, depth + 1, *_panel(func, mid, hi)))
            evaluations += 2 * _NODES.size

    value = float(total) if np.ndim(total) == 0 else total
    return QuadratureResult(value=value, error=err, evaluations=evaluations,
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

