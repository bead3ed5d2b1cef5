"""Abel-averaged transport: time-averaged site probabilities, their moment
sums, and three independently discretized routes to the same quantity.

The central object is the two-entry Abel average

    P(n; T) = (2/T) integral_0^inf e^(-2t/T)
              (|<delta_n, e^(-itH) delta_0>|^2
               + |<delta_(n+1), e^(-itH) delta_1>|^2) dt,

whose sum over n is exactly 2.  Routes:

  * time route: eigendecomposition of a truncated operator; the Abel time
    integral is done in closed form through the Lorentzian kernel
    (4/T^2) / ((lambda_k - lambda_k')^2 + 4/T^2), so its only errors are
    lattice truncation (checked by a boundary-mass diagnostic);
  * resolvent route: Plancherel form (1/(pi T)) integral |G(E + i/T)|^2 dE
    with banded solves and adaptive energy panels, exterior tails mapped to
    a bounded interval;
  * Floquet route (periodic operators): the resolvent entries are assembled
    from the fiber eigensystems on a quasimomentum grid; for large T the
    energy integral is eliminated analytically, leaving a double
    quasimomentum sum against the same Lorentzian kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.special

from .arithmetic import Frequency
from .errors import InputError, NumericalError, TruncationError
from .floquet import floquet_eigensystem
from .operator import Chain, FiniteOperator, PeriodicModel, finite_operator
from .quadrature import (adaptive_integrate, integrate_left_tail,
                         integrate_right_tail)


@dataclass(frozen=True)
class EvolutionConfig:
    """Knobs shared by the transport routes.

    tail_tolerance controls both the Abel time-tail cut and the lattice
    truncation targets; truncation_speed is the light-cone bound for unit
    hopping (the exact front speed is 2, the margin absorbs the Airy
    widening together with truncation_pad).
    """

    tail_tolerance: float = 1e-6
    truncation_speed: float = 2.2
    truncation_pad: float = 48.0
    boundary_width: int = 8
    boundary_mass_tol: float = 1e-7
    energy_rel_tol: float = 1e-4
    max_kappa_points: int = 65536


DEFAULT_CONFIG = EvolutionConfig()


def abel_horizon(time_scale: float, tail_tolerance: float = 1e-6) -> float:
    """Time t* past which the Abel weight mass is below tail_tolerance."""
    if time_scale <= 0:
        raise InputError(f"time scale must be positive, got {time_scale}")
    if not 0 < tail_tolerance < 1:
        raise InputError(f"tail tolerance must be in (0,1), got {tail_tolerance}")
    return 0.5 * time_scale * math.log(4.0 / tail_tolerance)


def truncation_radius(time_scale: float, n_extent: int = 1,
                      config: EvolutionConfig = DEFAULT_CONFIG) -> int:
    """Lattice radius so the horizon-time wavefront stays far from the edge."""
    horizon = abel_horizon(time_scale, config.tail_tolerance)
    inner = (config.truncation_speed * horizon
             + 12.0 * (1.0 + horizon) ** (1.0 / 3.0)
             + config.truncation_pad)
    return int(math.ceil(inner)) + int(abs(n_extent))


def free_lattice_amplitude(displacement: int, times) -> np.ndarray:
    """<delta_n, e^(-itH) delta_0> for the zero-potential chain:
    (-i)^|n| J_|n|(2t)."""
    n = abs(int(displacement))
    t = np.asarray(times, dtype=float)
    return (-1j) ** n * scipy.special.jv(n, 2.0 * t)


def _as_finite(source, radius: int | None, time_scale: float,
               n_extent: int, config: EvolutionConfig) -> FiniteOperator:
    if isinstance(source, FiniteOperator):
        return source
    if radius is None:
        radius = truncation_radius(time_scale, n_extent, config)
    if isinstance(source, (Chain, PeriodicModel)):
        return finite_operator(source, radius)
    raise InputError(
        f"cannot build transport from {type(source).__name__}; "
        "pass a Chain, PeriodicModel, or FiniteOperator")


def evolve(op: FiniteOperator, times, source: int = 0) -> np.ndarray:
    """Wavefunctions e^(-itH) delta_source, one row per time."""
    t = np.atleast_1d(np.asarray(times, dtype=float))
    w, u = op.eigensystem()
    coeff = u[op.site_index(source), :]
    out = np.empty((t.size, op.dimension), dtype=complex)
    chunk = max(1, int(2e7) // op.dimension)
    for lo in range(0, t.size, chunk):
        hi = min(lo + chunk, t.size)
        phases = np.exp(-1j * np.outer(t[lo:hi], w)) * coeff[None, :]
        out[lo:hi] = phases @ u.T
    return out


def amplitude(op: FiniteOperator, n_from: int, n_to: int, times) -> np.ndarray:
    """<delta_(n_to), e^(-itH) delta_(n_from)> on the truncated lattice."""
    t = np.atleast_1d(np.asarray(times, dtype=float))
    w, u = op.eigensystem()
    c = u[op.site_index(n_to), :] * u[op.site_index(n_from), :]
    out = np.empty(t.size, dtype=complex)
    chunk = max(1, int(2e7) // max(1, w.size))
    for lo in range(0, t.size, chunk):
        hi = min(lo + chunk, t.size)
        out[lo:hi] = np.exp(-1j * np.outer(t[lo:hi], w)) @ c
    return out


def boundary_mass(op: FiniteOperator, time: float, source: int = 0,
                  width: int = 8) -> float:
    """Probability mass on the outermost width sites of each edge at time t."""
    psi = evolve(op, [float(time)], source)[0]
    prob = np.abs(psi) ** 2
    width = min(width, op.dimension)
    return float(np.sum(prob[:width]) + np.sum(prob[-width:]))


def _check_truncation(op: FiniteOperator, time_scale: float,
                      config: EvolutionConfig) -> float:
    horizon = abel_horizon(time_scale, config.tail_tolerance)
    leak = max(boundary_mass(op, horizon, 0, config.boundary_width),
               boundary_mass(op, horizon, 1, config.boundary_width))
    if leak > config.boundary_mass_tol:
        raise TruncationError(
            f"boundary mass {leak:.3e} at the Abel horizon t = {horizon:.3g} "
            f"exceeds {config.boundary_mass_tol:.1e}; "
            f"enlarge the radius (currently {op.N})")
    return leak


#: Chebyshev order of the far field of _lorentz_form, its first-kind nodes
#: on [-1, 1], and the matrix taking T_0..T_(p-1) at a point to the
#: Lagrange weights of those nodes
_CHEB_ORDER = 20
_CHEB_NODES = np.cos((np.arange(_CHEB_ORDER) + 0.5) * np.pi / _CHEB_ORDER)
_CHEB_WEIGHTS = np.cos(np.outer(np.arange(_CHEB_ORDER),
                                np.arccos(_CHEB_NODES))) * (2.0 / _CHEB_ORDER)
_CHEB_WEIGHTS[0] *= 0.5
#: most kernel entries built at once
_KERNEL_CHUNK = 1 << 18


def _lorentz_form(lams: np.ndarray, coeffs: np.ndarray,
                  time_scale: float) -> float:
    """sum over the real columns c of coeffs (shape (N,) or (N, m)) of
    sum_(k,k') c_k c_k' L(lam_k - lam_k'), L(x) = a^2/(x^2 + a^2), a = 2/T.

    Fast sum: the sorted eigenvalues are cut into blocks of
    b = ceil((2 N p^2 / 3)^(1/3)) consecutive values.  Two blocks whose gap
    is at least the larger of their widths are admissible: each sees the
    poles of L(x - y) at x - y = +-ia outside the Bernstein ellipse
    rho = 3 + sqrt(8) of the other's interval, so interpolating L at p = 20
    Chebyshev nodes per block errs by about rho^-p ~ 5e-16 relative to the
    kernel there.  Admissible pairs are summed through the kernel on the
    nodes and the blocks' Chebyshev moments, the others directly; with one
    block this is the direct sum.  The error stays near 1e-15 of
    ||c||_1^2 (tests/test_transport.py compares it with the dense sum).
    """
    a2 = (2.0 / time_scale) ** 2
    p = _CHEB_ORDER
    n = lams.size
    order = np.argsort(lams, kind="stable")
    c = np.asarray(coeffs, dtype=float).reshape(n, -1)[order]
    size = int(math.ceil((2.0 * n * p * p / 3.0) ** (1.0 / 3.0)))
    nblk = -(-n // size)
    pad = nblk * size - n  # zero coefficients at the largest eigenvalue
    x = np.pad(lams[order], (0, pad), mode="edge").reshape(nblk, size)
    c = np.pad(c, ((0, pad), (0, 0))).reshape(nblk, size, -1)
    width = x[:, -1] - x[:, 0]
    gap = x[None, :, 0] - x[:, -1, None]  # from block i up to block j > i
    far = np.triu(gap >= np.maximum.outer(width, width), 1)

    total = 0.0
    ii, jj = np.nonzero(np.triu(~far))  # kernel symmetric: i <= j, twice i < j
    weight = np.where(ii == jj, 1.0, 2.0)
    step = max(1, _KERNEL_CHUNK // (size * size))
    for s in range(0, ii.size, step):
        i, j = ii[s:s + step], jj[s:s + step]
        d = x[i, :, None] - x[j, None, :]
        near = np.einsum('pkc,pkc->p', c[i], (a2 / (d * d + a2)) @ c[j])
        total += float(weight[s:s + step] @ near)

    half, mid = 0.5 * width, 0.5 * (x[:, -1] + x[:, 0])
    u = (x - mid[:, None]) / np.where(half > 0, half, 1.0)[:, None]
    basis = np.cos(np.arange(p) * np.arccos(np.clip(u, -1.0, 1.0))[..., None])
    moments = np.einsum('jka,jkc->jac', basis @ _CHEB_WEIGHTS, c)
    moments = moments.reshape(nblk * p, -1)
    nodes = (mid[:, None] + half[:, None] * _CHEB_NODES).ravel()
    rows = max(1, _KERNEL_CHUNK // (p * p * nblk))
    for i0 in range(0, nblk - 1, rows):
        i1 = min(i0 + rows, nblk - 1)
        d = nodes[i0 * p:i1 * p, None] - nodes[None, (i0 + 1) * p:]
        kern = (a2 / (d * d + a2)).reshape(i1 - i0, p, nblk - i0 - 1, p)
        kern *= far[i0:i1, None, i0 + 1:, None]
        kern = kern.reshape((i1 - i0) * p, -1)
        total += 2.0 * float(np.sum(moments[i0 * p:i1 * p]
                                    * (kern @ moments[(i0 + 1) * p:])))
    return total


def abel_probability_time(source, displacement: int, time_scale: float,
                          config: EvolutionConfig = DEFAULT_CONFIG,
                          radius: int | None = None) -> float:
    """P(n; T) through the truncated eigendecomposition.

    The Abel time integral of each |amplitude|^2 is evaluated exactly via
    the Lorentzian eigenvalue kernel; the lattice cutoff is validated by a
    boundary-mass check at the Abel horizon.
    """
    displacement = int(displacement)
    n_extent = max(abs(displacement), abs(displacement + 1))
    op = _as_finite(source, radius, time_scale, n_extent, config)
    _check_truncation(op, time_scale, config)
    w, u = op.eigensystem()
    coeffs = np.stack([u[op.site_index(displacement + i), :]
                       * u[op.site_index(i), :] for i in (0, 1)], axis=1)
    return _lorentz_form(w, coeffs, time_scale)


@dataclass(frozen=True)
class TransportDistribution:
    """Abel-averaged site probabilities over a displacement window."""

    time_scale: float
    displacements: np.ndarray = field(repr=False)
    probabilities: np.ndarray = field(repr=False)
    radius: int
    boundary_leak: float
    single_entry: bool

    @property
    def total_mass(self) -> float:
        return float(np.sum(self.probabilities))

    def probability(self, displacement: int) -> float:
        k = int(displacement) - int(self.displacements[0])
        if not 0 <= k < self.displacements.size:
            raise InputError(f"displacement {displacement} outside the window")
        return float(self.probabilities[k])


def probability_distribution(source, time_scale: float,
                             config: EvolutionConfig = DEFAULT_CONFIG,
                             radius: int | None = None,
                             single_entry: bool = False
                             ) -> TransportDistribution:
    """All Abel probabilities P(n; T) on the truncated lattice at once.

    Total mass is 2 (or 1 with single_entry) up to the truncation and tail
    tolerances.
    """
    op = _as_finite(source, radius, time_scale, 1, config)
    leak = _check_truncation(op, time_scale, config)
    w, u = op.eigensystem()
    dim = op.dimension
    a2 = (2.0 / time_scale) ** 2

    entries = (0,) if single_entry else (0, 1)
    per_entry = []
    for i in entries:
        b = u * u[op.site_index(i), :][None, :]
        acc = np.zeros(dim)
        col_chunk = max(1, int(4e6) // dim)
        for lo in range(0, dim, col_chunk):
            cols = slice(lo, min(lo + col_chunk, dim))
            kblk = a2 / ((w[:, None] - w[None, cols]) ** 2 + a2)
            acc += np.einsum('nc,nc->n', b @ kblk, b[:, cols])
        per_entry.append(acc)

    # entry i contributes at displacement (site - i); displacements where
    # every requested entry exists: -N .. N-1 (or the full window if only
    # the first entry is used)
    n_lo, n_hi = (-op.N, op.N) if single_entry else (-op.N, op.N - 1)
    disp = np.arange(n_lo, n_hi + 1)
    probs = np.zeros(disp.size)
    for i, acc in zip(entries, per_entry):
        probs += acc[(disp + i) + op.N]
    return TransportDistribution(time_scale=float(time_scale),
                                 displacements=disp, probabilities=probs,
                                 radius=op.N, boundary_leak=leak,
                                 single_entry=single_entry)


@dataclass(frozen=True)
class TransportMoments:
    time_scale: float
    orders: tuple
    values: tuple
    distribution: TransportDistribution

    def moment(self, p) -> float:
        return self.values[self.orders.index(p)]


def moments(source, time_scale: float, orders=(2,),
            config: EvolutionConfig = DEFAULT_CONFIG,
            radius: int | None = None,
            single_entry: bool = False) -> TransportMoments:
    """Abel-averaged moment sums M_p(T) = sum_n |n|^p P(n; T)."""
    orders = tuple(float(p) for p in np.atleast_1d(orders))
    if any(p < 0 for p in orders):
        raise InputError(f"moment orders must be >= 0, got {orders}")
    dist = probability_distribution(source, time_scale, config, radius,
                                    single_entry)
    absn = np.abs(dist.displacements.astype(float))
    values = tuple(float(np.sum(absn ** p * dist.probabilities))
                   for p in orders)
    return TransportMoments(time_scale=float(time_scale), orders=orders,
                            values=values, distribution=dist)


def _resolvent_radius(time_scale: float, n_extent: int,
                      config: EvolutionConfig) -> int:
    # interior resolvent decay at Im z = 1/T is as slow as e^(-d/(2T))
    return int(math.ceil(2.5 * time_scale * math.log(4.0 / config.tail_tolerance)
                         + abs(n_extent) + 64))


def abel_resolvent_profile(source, displacements, time_scale: float,
                           config: EvolutionConfig = DEFAULT_CONFIG,
                           radius: int | None = None) -> np.ndarray:
    """P(n; T) for several displacements through the Plancherel resolvent
    form, sharing every banded solve across the displacements.

    Each value is (1/(pi T)) times the integral over E of
    |G(n,0; E+i/T)|^2 + |G(n+1,1; E+i/T)|^2; the two exterior tails are
    integrated through the 1/(E - anchor) substitution rather than merely
    bounded.
    """
    disp = [int(n) for n in np.atleast_1d(displacements)]
    if not disp:
        raise InputError("need at least one displacement")
    n_extent = max(max(abs(n), abs(n + 1)) for n in disp)
    if radius is None:
        radius = _resolvent_radius(time_scale, n_extent, config)
    op = _as_finite(source, radius, time_scale, n_extent, config)
    dim = op.dimension
    diag, off = op.tridiagonal()
    eta = 1.0 / time_scale
    rows0 = np.array([op.site_index(n) for n in disp])
    rows1 = np.array([op.site_index(n + 1) for n in disp])
    rhs = np.zeros((dim, 2), dtype=complex)
    rhs[op.site_index(0), 0] = 1.0
    rhs[op.site_index(1), 1] = 1.0
    ab = np.zeros((3, dim), dtype=complex)
    ab[0, 1:] = off
    ab[2, :-1] = off

    def integrand(energies):
        energies = np.atleast_1d(np.asarray(energies, dtype=float))
        out = np.empty((energies.size, len(disp)))
        for k, e in enumerate(energies):
            ab[1, :] = diag - (e + 1j * eta)
            sol = scipy.linalg.solve_banded((1, 1), ab, rhs,
                                            overwrite_ab=False,
                                            check_finite=False)
            out[k] = np.abs(sol[rows0, 0]) ** 2 + np.abs(sol[rows1, 1]) ** 2
        return out

    return _abel_energy_integral(integrand, op.norm_bound + 1.0, time_scale,
                                 config)


def _abel_energy_integral(integrand, bound: float, time_scale: float,
                          config: EvolutionConfig):
    """(1 / (pi T)) times the integral of integrand(E) over the real line:
    adaptive panels on [-bound, bound] plus the two tails beyond it."""
    # enough initial panels that 1/T-wide features are seen by the coarse pass
    panels = int(min(512, max(8, math.ceil(2.0 * bound * time_scale / 16.0))))
    central = adaptive_integrate(integrand, -bound, bound,
                                 rel_tol=config.energy_rel_tol,
                                 initial_panels=panels)
    # the tails are a small correction; resolving them below the accuracy
    # already granted to the central part would chase rounding noise
    floor = config.energy_rel_tol * max(
        float(np.max(np.abs(central.value))), 1e-300)
    right = integrate_right_tail(integrand, bound, scale=2.0 * bound,
                                 rel_tol=config.energy_rel_tol, abs_tol=floor)
    left = integrate_left_tail(integrand, -bound, scale=2.0 * bound,
                               rel_tol=config.energy_rel_tol, abs_tol=floor)
    return (central.value + left.value + right.value) / (math.pi * time_scale)


def abel_probability_resolvent(source, displacement: int, time_scale: float,
                               config: EvolutionConfig = DEFAULT_CONFIG,
                               radius: int | None = None) -> float:
    """P(n; T) through the Plancherel resolvent form (single displacement)."""
    profile = abel_resolvent_profile(source, [int(displacement)], time_scale,
                                     config=config, radius=radius)
    return float(profile[0])


def _bloch_data(model: PeriodicModel, points: int, displacement: int):
    """Eigenvalues and two-entry spectral coefficients on the kappa grid.

    For entry i the target site is g = displacement + i = s q + r; the
    extended Bloch wave obeys psi(n + q) = e^(-i q kappa) psi(n), so the
    coefficient of 1/(lambda_j(kappa) - z) in G(g, i; z) is
    e^(-i q kappa s) Psi_j(r) conj(Psi_j(i)) / points.
    """
    q = model.q
    kappas = np.arange(points) * (2.0 * math.pi / q) / points
    lams = np.empty((points, q))
    coeffs = np.empty((2, points, q), dtype=complex)
    for m, kap in enumerate(kappas):
        es = floquet_eigensystem(model, kap)
        lams[m] = es.eigenvalues
        for i in (0, 1):
            g = displacement + i
            s, r = divmod(g, q)
            src = i % q
            shift = i // q  # source delta_1 sits in the next cell when q = 1
            w = es.eigenvectors[r, :] * np.conj(es.eigenvectors[src, :])
            phase = np.exp(-1j * q * kap * (s - shift))
            coeffs[i, m] = phase * w / points
    return lams, coeffs


def abel_probability_floquet(model: PeriodicModel, displacement: int,
                             time_scale: float,
                             config: EvolutionConfig = DEFAULT_CONFIG,
                             route: str = "auto",
                             kappa_points: int | None = None) -> float:
    """P(n; T) for a periodic operator through its fiber eigensystems.

    route='energy' integrates |G|^2 over E with G assembled from the
    quasimomentum grid; route='kernel' does the E integral analytically and
    sums the Lorentzian kernel over quasimomentum pairs (preferred for
    large T).  'auto' switches at T = 200.  The grid is doubled until the
    answer is stable.
    """
    if not isinstance(model, PeriodicModel):
        raise InputError("the Floquet route needs a PeriodicModel")
    if route == "auto":
        route = "kernel" if time_scale > 200.0 else "energy"
    if route not in ("energy", "kernel"):
        raise InputError(f"unknown route {route!r}")
    displacement = int(displacement)
    time_scale = float(time_scale)
    if time_scale <= 0:
        raise InputError(f"time scale must be positive, got {time_scale}")

    if kappa_points is not None:
        if int(kappa_points) < 1:
            raise InputError(
                f"need at least one kappa point, got {kappa_points}")
        return _floquet_value(model, displacement, time_scale, route,
                              int(kappa_points), config)
    points = 256
    prev = None
    last_change = math.inf
    while points <= config.max_kappa_points:
        val = _floquet_value(model, displacement, time_scale, route, points,
                             config)
        if prev is not None:
            scale = max(abs(val), abs(prev), 1e-300)
            last_change = abs(val - prev)
            # 1e-13 floor: below the rounding noise of the double kappa sum
            # a relative test can never settle
            if last_change <= 10.0 * config.energy_rel_tol * scale + 1e-13:
                return val
        prev = val
        points *= 2
    raise NumericalError(
        f"quasimomentum grid did not converge below {config.max_kappa_points} "
        f"points (last change {last_change:.3e} at {points // 2})")


def _floquet_value(model: PeriodicModel, displacement: int, time_scale: float,
                   route: str, points: int, config: EvolutionConfig) -> float:
    lams, coeffs = _bloch_data(model, points, displacement)
    if route == "kernel":
        # Re(c_k conj(c_k')) = Re c_k Re c_k' + Im c_k Im c_k'
        columns = np.concatenate([coeffs.real, coeffs.imag]).reshape(4, -1)
        return _lorentz_form(lams.ravel(), columns.T, time_scale)

    eta = 1.0 / time_scale
    lam_flat = lams.ravel()
    c0 = coeffs[0].ravel()
    c1 = coeffs[1].ravel()

    def integrand(energies):
        energies = np.atleast_1d(np.asarray(energies, dtype=float))
        out = np.empty(energies.size)
        for k, e in enumerate(energies):
            denom = lam_flat - (e + 1j * eta)
            out[k] = abs(np.sum(c0 / denom)) ** 2 + \
                abs(np.sum(c1 / denom)) ** 2
        return out

    return _abel_energy_integral(integrand, model.norm_bound + 1.0,
                                 time_scale, config)


@dataclass(frozen=True)
class SubsequenceSchedule:
    """Convergent indices passing the growth threshold, with their time
    scales T_k = exp((gamma0 + eps') q_(m_k) / delta)."""

    threshold: float
    gamma0: float
    delta: float
    eps_prime: float
    indices: tuple
    denominators: tuple
    times: tuple

    @property
    def size(self) -> int:
        return len(self.indices)


def subsequence_times(freq: Frequency, gamma0: float, delta: float,
                      eps_prime: float) -> SubsequenceSchedule:
    """Select convergents whose denominator growth log(q_(m+1))/q_m exceeds
    3 (gamma0 + 2 eps') / delta and schedule the matching time scales."""
    if not 0.0 < delta < 0.5:
        raise InputError(f"delta must lie in (0, 1/2), got {delta}")
    if gamma0 <= 0:
        raise InputError(f"gamma0 must be positive, got {gamma0}")
    if eps_prime <= 0:
        raise InputError(f"eps_prime must be positive, got {eps_prime}")
    threshold = 3.0 * (gamma0 + 2.0 * eps_prime) / delta
    qs = freq.denominators
    indices, dens, times = [], [], []
    for m in range(1, len(qs)):
        ratio = math.log(qs[m]) / qs[m - 1]
        if ratio > threshold:
            indices.append(m)          # 1-indexed convergent whose q we use
            dens.append(qs[m - 1])
            exponent = (gamma0 + eps_prime) * qs[m - 1] / delta
            times.append(math.exp(exponent) if exponent < 700.0
                         else math.inf)
    return SubsequenceSchedule(threshold=threshold, gamma0=gamma0,
                               delta=delta, eps_prime=eps_prime,
                               indices=tuple(indices),
                               denominators=tuple(dens), times=tuple(times))
