"""Transfer-matrix products and Lyapunov exponent estimation.

One-step matrices are T(n) = [[E - V(n), -1], [1, 0]] (det = 1), so
Phi_{[0,n]} = T(n)...T(0) maps (psi(0), psi(-1)) to (psi(n+1), psi(n)).
Long products are kept representable by a cadence-32 renormalization by
exact powers of two with an accumulated base-2 exponent; the determinant
is tracked separately via a per-step Givens-QR factor stream, whose
per-step 2x2 factorizations stay well conditioned even when the product
itself is hyperbolic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, NumericalError, check_memory
from .operator import (Chain, PeriodicModel, SamplingFunction, _finite,
                       lattice_potential)

RENORM_CADENCE = 32
# log of the state size the cocycle renormalizes before: squares stay finite
_RENORM_BUDGET = 0.5 * math.log(1e250)
# E - V(n) entries per Lyapunov block of (steps, phases, energies)
_BLOCK_ENTRIES = 1 << 17
GOLDEN_MEAN = (math.sqrt(5.0) - 1.0) / 2.0
_LN2 = math.log(2.0)


@dataclass(frozen=True)
class TransferProduct:
    """A finite transfer product with renormalization bookkeeping.

    The true product equals exp(log_scale) * matrix_scaled, and its
    inverse exp(log_scale) * adj(matrix_scaled).  det_log is the
    accumulated log|det| from the QR factor stream and should vanish; the
    det sign is tracked separately and should stay +1.
    """

    energy: float
    n_lo: int
    n_hi: int
    matrix_scaled: np.ndarray = field(repr=False)
    log_scale: float
    det_log: float
    det_sign: int

    @property
    def matrix(self) -> np.ndarray:
        """The true product, when representable in double precision."""
        if self.log_scale > 700.0:
            raise NumericalError(
                f"product norm e^{self.log_scale:.1f} overflows doubles; "
                "use matrix_scaled and log_scale")
        return math.exp(self.log_scale) * self.matrix_scaled


def cocycle(a, x, y, log_scale=0):
    """The state (x, y, log_scale) after the steps (x, y) -> (a x - y, x)
    over axis 0 of a = E - V(n) (the start state if a is empty).

    Rows of ``a`` broadcast against the states, whose last axis groups
    columns that share one scale.  Every RENORM_CADENCE steps (sooner for
    large |a|) each group is divided by 2^k, the power of two just above
    its Frobenius norm, and k adds to the integer log_scale: the true
    states are 2^log_scale * (x, y).  Dividing by a power of two moves no
    mantissa, so where the renormalizations fall leaves the states' values
    unchanged, and a batch equals its single calls bit for bit.
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
        x, y = an * x - y, x
        budget += growth[n]
        if ((n + 1) % RENORM_CADENCE == 0
                or budget + growth[n + 1] > _RENORM_BUDGET):
            fro = np.sqrt(np.sum(x * x + y * y, axis=-1, keepdims=True))
            if not np.all(np.isfinite(fro) & (fro > 0.0)):
                raise NumericalError(f"transfer norm not finite at step {n + 1}")
            shift = np.frexp(fro)[1]
            x, y = np.ldexp(x, -shift), np.ldexp(y, -shift)
            log_scale = log_scale + shift[..., 0]
            budget = 0.0
    return x, y, log_scale


def _det_stream(a) -> tuple[float, int]:
    """log|det| and sign of a transfer product from its per-step Givens-QR
    factors, which stay well conditioned when the product is hyperbolic."""
    c, s = 1.0, 0.0  # the last Q factor, [[c, -s], [s, c]]
    det_logs = []
    det_sign = 1
    for count, an in enumerate(a.tolist()):
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


def transfer_product(source, energy: float, n_lo: int, n_hi: int
                     ) -> TransferProduct:
    """T(n_hi)...T(n_lo) over the sites [n_lo, n_hi] of a Chain, a
    PeriodicModel, or an array of V(n_lo..n_hi)."""
    if n_hi < n_lo:
        raise InputError(f"empty site interval [{n_lo}, {n_hi}]")
    if isinstance(source, (Chain, PeriodicModel)):
        source = lattice_potential(source, n_lo, n_hi)
    v = np.asarray(source, dtype=float)
    if v.shape != (n_hi - n_lo + 1,):
        raise InputError(
            f"potential array has shape {v.shape}, expected ({n_hi - n_lo + 1},)")
    energy = float(energy)
    a = energy - v
    # the rows of the product are the states, its columns the group
    x, y, log_scale = cocycle(a, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    det_log, det_sign = _det_stream(a)
    return TransferProduct(
        energy=energy, n_lo=n_lo, n_hi=n_hi,
        matrix_scaled=np.array([x, y]), log_scale=float(log_scale) * _LN2,
        det_log=det_log, det_sign=det_sign)


@dataclass(frozen=True)
class LyapunovEstimate:
    energy: float | np.ndarray
    gamma_hat: float | np.ndarray
    stderr: float | np.ndarray
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


def lyapunov_exponent(f: SamplingFunction, alpha, energy,
                      n_steps: int = 10_000, theta_count: int = 100,
                      theta_mode: str = "golden", seed=None) -> LyapunovEstimate:
    """Phase-averaged Lyapunov estimate (1/n) log ||Phi_[0,n-1](E) e1||.

    The solution from e1 = (psi(0), psi(-1)) = (1, 0) grows like ||Phi||
    in the limit, not at finite n.  The cocycle runs over a theta grid
    (golden rotation by default, seeded i.i.d. draws as fallback).  An
    energy array gives array fields (per_theta (energies, phases)) from one
    cocycle over the shared grid; each energy's values equal its own call's
    bit for bit.
    """
    if n_steps < 1:
        raise InputError(f"n_steps must be >= 1, got {n_steps}")
    # the smallest block: RENORM_CADENCE steps of E - V and 3 temporaries
    # of that size, plus 8 arrays the size of the state
    check_memory(8 * theta_count * (4 * RENORM_CADENCE + 8),
                 f"a Lyapunov block over {theta_count} phases")
    thetas = _theta_grid(theta_count, theta_mode, seed)
    energies = _finite(energy, "energies")
    per_theta = np.empty((energies.size, theta_count))
    chunk = max(1, _BLOCK_ENTRIES // (RENORM_CADENCE * theta_count))
    for lo in range(0, energies.size, chunk):
        e = energies.reshape(-1)[lo:lo + chunk]
        steps = RENORM_CADENCE * max(1, chunk // e.size)
        x, y, log_scale = 1.0, 0.0, 0  # e1, broadcast by cocycle
        # a = E - V(n) over (steps, phases, energies), a block at a time
        for start in range(0, n_steps, steps):
            n = np.arange(start, min(start + steps, n_steps))[:, None]
            v = np.asarray(f((thetas + n * float(alpha)) % 1.0), dtype=float)
            x, y, log_scale = cocycle((e - v[..., None])[..., None], x, y,
                                      log_scale=log_scale)
        # the state's own exponent joins log_scale before the one log,
        # so the value does not depend on how the two share it
        mantissa, exponent = np.frexp(
            np.maximum(x[..., 0] ** 2 + y[..., 0] ** 2, 1e-300))
        per_theta[lo:lo + chunk] = ((0.5 * np.log(mantissa)
                                     + (log_scale + 0.5 * exponent) * _LN2)
                                    / n_steps).T
    # each energy's row is contiguous, as a lone energy's per_theta is
    gamma_hat = np.array([np.mean(row) for row in per_theta])
    stderr = np.array([np.std(row, ddof=1) / math.sqrt(theta_count)
                       if theta_count > 1 else 0.0 for row in per_theta])
    if energies.ndim == 0:
        energies, gamma_hat, stderr, per_theta = (
            float(energies), float(gamma_hat[0]), float(stderr[0]), per_theta[0])
    return LyapunovEstimate(energy=energies, gamma_hat=gamma_hat,
                            stderr=stderr, n_steps=n_steps,
                            theta_count=theta_count, per_theta=per_theta)


@dataclass(frozen=True)
class MinLyapunovResult:
    energy: float
    gamma: float


def min_lyapunov_on_spectrum(f: SamplingFunction, alpha, energies,
                             n_steps: int = 10_000, theta_count: int = 100
                             ) -> MinLyapunovResult:
    """Minimize the Lyapunov estimate over a list of on-spectrum energies
    (typically band centers of a deep periodic approximant)."""
    energies = np.atleast_1d(np.asarray(energies, dtype=float))
    if energies.size == 0:
        raise InputError("need at least one energy")
    gammas = lyapunov_exponent(f, alpha, energies, n_steps,
                               theta_count).gamma_hat
    k = int(np.argmin(gammas))
    return MinLyapunovResult(energy=float(energies[k]), gamma=float(gammas[k]))


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
