"""Transfer-matrix products, Lyapunov exponent estimation, and the
rational-approximation diagnostics built on them.

One-step matrices are T(n) = [[E - V(n), -1], [1, 0]] (det = 1), so
Phi_{[0,n]} = T(n)...T(0) maps (psi(0), psi(-1)) to (psi(n+1), psi(n)).
Long products are kept representable by a cadence-32 norm renormalization
with an accumulated log factor; the determinant is tracked separately via
a per-step Givens-QR factor stream, whose per-step 2x2 factorizations stay
well conditioned even when the product itself is hyperbolic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import InputError, NumericalError
from .operator import Chain, PeriodicModel, SamplingFunction, sample_potential

RENORM_CADENCE = 32
_OVERFLOW_GUARD = 1e250
# log of the state size the cocycle renormalizes before: squares stay finite
_RENORM_BUDGET = 0.5 * math.log(_OVERFLOW_GUARD)
# Lyapunov steps per block of E - V(n) values; a multiple of the cadence
_STEP_BLOCK = 64 * RENORM_CADENCE
GOLDEN_MEAN = (math.sqrt(5.0) - 1.0) / 2.0


def _potential_segment(source, n_lo: int, n_hi: int) -> np.ndarray:
    if isinstance(source, Chain):
        return source.potential(n_lo, n_hi)
    if isinstance(source, PeriodicModel):
        return source.extended(n_lo, n_hi)
    arr = np.asarray(source, dtype=float)
    if arr.shape != (n_hi - n_lo + 1,):
        raise InputError(
            f"potential array has shape {arr.shape}, expected ({n_hi - n_lo + 1},)")
    return arr


@dataclass(frozen=True)
class TransferProduct:
    """A finite transfer product with renormalization bookkeeping.

    The true product equals exp(log_scale) * matrix_scaled.  det_log is the
    accumulated log|det| from the QR factor stream and should vanish; the
    det sign is tracked separately and should stay +1.
    """

    energy: float
    n_lo: int
    n_hi: int
    inverse: bool
    matrix_scaled: np.ndarray = field(repr=False)
    log_scale: float
    det_log: float
    det_sign: int

    @property
    def length(self) -> int:
        return self.n_hi - self.n_lo + 1

    @property
    def log_norm(self) -> float:
        """log of the spectral norm of the true product."""
        return self.log_scale + math.log(np.linalg.norm(self.matrix_scaled, 2))

    @property
    def matrix(self) -> np.ndarray:
        """The true product, when representable in double precision."""
        if self.log_scale > 700.0:
            raise NumericalError(
                f"product norm e^{self.log_scale:.1f} overflows doubles; "
                "use matrix_scaled and log_scale")
        return math.exp(self.log_scale) * self.matrix_scaled

    def apply(self, vec) -> np.ndarray:
        return self.matrix @ np.asarray(vec, dtype=float)


def cocycle_orbit(a, x, y, inverse: bool = False, log_scale=0.0,
                  renormalize: bool = True):
    """Yield (x, y, log_scale) after each step (x, y) -> (a x - y, x), or
    with inverse (x, y) -> (y, a y - x), over axis 0 of a = E - V(n).

    Rows of ``a`` broadcast against the states, whose last axis groups
    columns that share one scale.  Every RENORM_CADENCE steps (sooner for
    large |a|) each group is divided by its Frobenius norm, whose log adds
    to log_scale: the true states are exp(log_scale) * (x, y).
    renormalize=False keeps the plain recurrence's values and raises
    NumericalError once the newest |psi| passes _OVERFLOW_GUARD.
    """
    a = np.asarray(a, dtype=float)
    shape = np.broadcast_shapes(a.shape[1:], np.shape(x), np.shape(y)) or (1,)
    x, y = np.broadcast_to(x, shape), np.broadcast_to(y, shape)
    log_scale = np.broadcast_to(log_scale, shape[:-1])
    # log of a bound on each step's growth of max(|x|, |y|); renormalizing
    # before the next step could pass _RENORM_BUDGET keeps squares finite
    growth = np.log1p(np.abs(a).max(axis=tuple(range(1, a.ndim)), initial=0.0))
    growth = growth.tolist() + [0.0]
    budget = 0.0
    for n, an in enumerate(a):
        if inverse:
            x, y = y, an * y - x
        else:
            x, y = an * x - y, x
        budget += growth[n]
        if not renormalize:
            if abs(y if inverse else x).max() > _OVERFLOW_GUARD:
                raise NumericalError(f"transfer orbit overflows at step {n} "
                                     "(|psi| > 1e250)")
        elif ((n + 1) % RENORM_CADENCE == 0
              or budget + growth[n + 1] > _RENORM_BUDGET):
            fro = np.sqrt(np.sum(x * x + y * y, axis=-1, keepdims=True))
            if not np.all(np.isfinite(fro) & (fro > 0.0)):
                raise NumericalError(f"transfer norm not finite at step {n + 1}")
            x, y = x / fro, y / fro
            log_scale = log_scale + np.log(fro[..., 0])
            budget = 0.0
        yield x, y, log_scale


def cocycle(a, x, y, inverse: bool = False, log_scale=0.0):
    """The last state of cocycle_orbit (the start state if a is empty)."""
    state = (x, y, log_scale)
    for state in cocycle_orbit(a, x, y, inverse, log_scale):
        pass
    return state


def _det_stream(a, inverse: bool) -> tuple[float, int]:
    """log|det| and sign of a transfer product from its per-step Givens-QR
    factors, which stay well conditioned when the product is hyperbolic."""
    c, s = 1.0, 0.0  # the last Q factor, [[c, -s], [s, c]]
    det_logs = []
    det_sign = 1
    for count, an in enumerate(a.tolist()):
        if inverse:
            a00, a10, a01, a11 = s, an * s - c, c, s + an * c
        else:
            a00, a10, a01, a11 = an * c - s, c, -(an * s) - c, -s
        r11 = math.hypot(a00, a10)
        if r11 == 0.0 or not math.isfinite(r11):
            raise NumericalError(f"transfer product degenerated at step {count}")
        c, s = a00 / r11, a10 / r11
        r22 = c * a11 - s * a01
        if r22 == 0.0:
            raise NumericalError(
                f"determinant factor vanished at step {count} "
                "(energy scale too large for the QR stream)")
        det_logs.append(math.log(r11) + math.log(abs(r22)))
        if r22 < 0.0:
            det_sign = -det_sign
    return math.fsum(det_logs), det_sign


def transfer_product(source, energy: float, n_lo: int, n_hi: int,
                     inverse: bool = False) -> TransferProduct:
    """Product of one-step matrices over the site interval [n_lo, n_hi].

    Forward: T(n_hi)...T(n_lo).  Inverse: T^{-1}(n_lo)...T^{-1}(n_hi),
    matching the left-half-line convention (most negative site leftmost).
    """
    if n_hi < n_lo:
        raise InputError(f"empty site interval [{n_lo}, {n_hi}]")
    energy = float(energy)
    a = energy - _potential_segment(source, n_lo, n_hi)
    if inverse:
        a = a[::-1]
    # the rows of the product are the states, its columns the group
    x, y, log_scale = cocycle(a, np.array([1.0, 0.0]), np.array([0.0, 1.0]),
                              inverse)
    det_log, det_sign = _det_stream(a, inverse)
    return TransferProduct(
        energy=energy, n_lo=n_lo, n_hi=n_hi, inverse=inverse,
        matrix_scaled=np.array([x, y]), log_scale=float(log_scale),
        det_log=det_log, det_sign=det_sign)


@dataclass(frozen=True)
class LyapunovEstimate:
    energy: float
    gamma_hat: float
    stderr: float
    n_steps: int
    theta_count: int
    per_theta: np.ndarray = field(repr=False)


def _theta_grid(theta_count: int, mode: str, seed) -> np.ndarray:
    if theta_count < 1:
        raise InputError(f"theta_count must be >= 1, got {theta_count}")
    if mode == "golden":
        return (np.arange(1, theta_count + 1) * GOLDEN_MEAN) % 1.0
    if mode == "random":
        return np.random.default_rng(seed).uniform(0.0, 1.0, theta_count)
    raise InputError(f"unknown theta mode {mode!r} (use 'golden' or 'random')")


def lyapunov_exponent(f: SamplingFunction, alpha, energy: float,
                      n_steps: int = 10_000, theta_count: int = 100,
                      theta_mode: str = "golden", seed=None) -> LyapunovEstimate:
    """Phase-averaged Lyapunov estimate (1/n) log ||Phi_[0,n-1](E) e1||.

    The solution from e1 = (psi(0), psi(-1)) = (1, 0) grows like ||Phi||
    in the limit, not at finite n.  The cocycle runs over a theta grid
    (golden rotation by default, seeded i.i.d. draws as fallback).
    """
    if n_steps < 1:
        raise InputError(f"n_steps must be >= 1, got {n_steps}")
    thetas = _theta_grid(theta_count, theta_mode, seed)
    alpha_f = float(alpha)
    energy = float(energy)

    x, y, log_scale = np.ones((theta_count, 1)), np.zeros((theta_count, 1)), 0.0
    # a = E - V(n) over (steps, phases), a block of steps at a time
    for start in range(0, n_steps, _STEP_BLOCK):
        n = np.arange(start, min(start + _STEP_BLOCK, n_steps))[:, None]
        a = energy - np.asarray(f((thetas + n * alpha_f) % 1.0), dtype=float)
        x, y, log_scale = cocycle(a[..., None], x, y, log_scale=log_scale)
    norm_sq = x[:, 0] ** 2 + y[:, 0] ** 2
    per_theta = (log_scale + 0.5 * np.log(np.maximum(norm_sq, 1e-300))) / n_steps
    gamma_hat = float(np.mean(per_theta))
    stderr = float(np.std(per_theta, ddof=1) / math.sqrt(theta_count)) \
        if theta_count > 1 else 0.0
    return LyapunovEstimate(energy=energy, gamma_hat=gamma_hat, stderr=stderr,
                            n_steps=n_steps, theta_count=theta_count,
                            per_theta=per_theta)


@dataclass(frozen=True)
class MinLyapunovResult:
    energy: float
    gamma: float
    estimates: tuple


def min_lyapunov_on_spectrum(f: SamplingFunction, alpha, energies,
                             n_steps: int = 10_000, theta_count: int = 100,
                             theta_mode: str = "golden", seed=None
                             ) -> MinLyapunovResult:
    """Minimize the Lyapunov estimate over a list of on-spectrum energies
    (typically band centers of a deep periodic approximant)."""
    energies = np.atleast_1d(np.asarray(energies, dtype=float))
    if energies.size == 0:
        raise InputError("need at least one energy")
    ests = tuple(lyapunov_exponent(f, alpha, e, n_steps, theta_count,
                                   theta_mode, seed) for e in energies)
    k = int(np.argmin([est.gamma_hat for est in ests]))
    return MinLyapunovResult(energy=float(energies[k]),
                             gamma=ests[k].gamma_hat, estimates=ests)


def gordon_block_statistic(a_matrix, u=None) -> float:
    """max(||A^2 u||, ||A u||, ||A^-1 u||, ||A^-2 u||) for unimodular A.

    The classical four-block fact guarantees this is >= 1/2 for any 2x2 A
    with det A = 1 and unit u.  det A is accepted within 1e-8 plus the
    rounding of the two products it cancels, 4 eps (|a00 a11| + |a01 a10|),
    so large genuine period blocks pass; A^-1 is the adjugate.
    """
    a = np.asarray(a_matrix, dtype=float)
    if a.shape != (2, 2):
        raise InputError(f"A must be 2x2, got shape {a.shape}")
    diag, anti = a[0, 0] * a[1, 1], a[0, 1] * a[1, 0]
    det = diag - anti
    if abs(det - 1.0) > 1e-8 + 4.0 * np.finfo(float).eps * (abs(diag)
                                                            + abs(anti)):
        raise InputError(f"A must be unimodular: det = {det!r}")
    if u is None:
        u = np.array([1.0, 0.0])
    u = np.asarray(u, dtype=float)
    if abs(np.linalg.norm(u) - 1.0) > 1e-8:
        raise InputError(f"u must be a unit vector, got norm {np.linalg.norm(u)}")
    a_inv = np.array([[a[1, 1], -a[0, 1]], [-a[1, 0], a[0, 0]]])
    return float(max(
        np.linalg.norm(a @ (a @ u)),
        np.linalg.norm(a @ u),
        np.linalg.norm(a_inv @ u),
        np.linalg.norm(a_inv @ (a_inv @ u)),
    ))


def _paired_orbit(f: SamplingFunction, alpha, alpha_m: Fraction,
                  theta: float, energy: float, n_max: int | None, u,
                  backward: bool):
    """The plain cocycle_orbit from u = (psi(0), psi(-1)) over the sites
    0..n_max-1 (backward: -1..-n_max) for the true potential (column 0)
    and its rational approximant's (column 1), which is exactly q-periodic.

    n_max defaults to twice the approximant's denominator q.  The orbit
    raises NumericalError once either solution passes the overflow guard.
    """
    if not isinstance(alpha_m, Fraction):
        raise InputError("alpha_m must be a Fraction approximant")
    if n_max is None:
        n_max = 2 * alpha_m.denominator
    if n_max < 1:
        raise InputError(f"n_max must be >= 1, got {n_max}")
    sites = (-n_max, -1) if backward else (0, n_max - 1)
    v = np.stack([sample_potential(f, alpha, theta, *sites),
                  sample_potential(f, alpha_m, theta, *sites)], axis=1)
    a = float(energy) - (v[::-1] if backward else v)
    return cocycle_orbit(a, np.full(2, float(u[0])), np.full(2, float(u[1])),
                         backward, renormalize=False)


def transfer_difference(f: SamplingFunction, alpha, alpha_m: Fraction,
                        theta: float, energy: float, n_max: int | None = None,
                        u=(1.0, 0.0), backward: bool = False) -> float:
    """max over lengths 1..n_max of ||(Phi_alpha - Phi_alpha_m) u||, the
    gap between the solutions from u = (psi(0), psi(-1)) for alpha and its
    rational approximant, over the sites 0..length-1 (backward: -1..-length).

    n_max defaults to twice the approximant's denominator (the two-block
    range the Gordon argument inspects).  Raises NumericalError if the
    orbits overflow before n_max.
    """
    orbit = _paired_orbit(f, alpha, alpha_m, theta, energy, n_max, u,
                          backward)
    return max(math.hypot(x[0] - x[1], y[0] - y[1]) for x, y, _ in orbit)
