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
    lattice truncation (checked by a boundary-mass diagnostic).  Each
    displacement's probability is two columns c^T L c of the fast pair
    sum, and only the requested displacements' columns are built, both
    entries of a chunk of them per call; a truncation whose dense
    eigenvectors would not fit in physical memory is refused before
    anything is built;
  * resolvent route: Plancherel form (1/(pi T)) integral |G(E + i/T)|^2 dE
    with banded solves and adaptive energy panels, exterior tails mapped to
    a bounded interval;
  * Floquet route (periodic operators): the resolvent entries are assembled
    from the fiber eigensystems on a quasimomentum grid, one set of
    eigensystems per grid for a whole window of displacements; for large T
    the energy integral is eliminated analytically, leaving a double
    quasimomentum sum against the same Lorentzian kernel.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .arithmetic import Frequency
from .errors import (InputError, MemoryLimitError, NumericalError,
                     TruncationError)
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


def _check_time_scale(time_scale) -> float:
    """The Abel time scale T as a float; InputError unless finite and > 0."""
    t = float(time_scale)
    if not (math.isfinite(t) and t > 0):
        raise InputError(
            f"time scale must be finite and positive, got {time_scale}")
    return t


def abel_horizon(time_scale: float, tail_tolerance: float = 1e-6) -> float:
    """Time t* past which the Abel weight mass is below tail_tolerance."""
    time_scale = _check_time_scale(time_scale)
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
    if not math.isfinite(inner):
        raise InputError(f"time scale {time_scale} has no finite "
                         "truncation radius")
    return int(math.ceil(inner)) + int(abs(n_extent))


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


def _time_operator(source, radius: int | None, time_scale: float,
                   n_extent: int, config: EvolutionConfig) -> FiniteOperator:
    """The time route's truncated operator, built only once its peak fits
    in the machine's physical memory: the dense eigenvectors and the
    eigensolver's workspace beside them (LAPACK ?stevd takes
    dim^2 + 4 dim + 1 doubles) at 8 dim^2 bytes each, plus one column chunk
    of the Lorentz form."""
    if radius is None and not isinstance(source, FiniteOperator):
        radius = truncation_radius(time_scale, n_extent, config)
    dim = source.dimension if isinstance(source, FiniteOperator) \
        else 2 * radius + 1
    need = 8 * (2 * dim * dim + _COLUMN_CHUNK)
    limit = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > limit:
        raise MemoryLimitError(
            f"the time route at dimension {dim} needs about "
            f"{need / 2 ** 30:.3g} GiB, more than the {limit / 2 ** 30:.3g} "
            "GiB of physical memory")
    return _as_finite(source, radius, time_scale, n_extent, config)


def evolve(op: FiniteOperator, times, source: int = 0,
           sites=None) -> np.ndarray:
    """Amplitudes <delta_n, e^(-itH) delta_source> on the truncated lattice,
    one row per time and one column per site n of sites (every site, in
    lattice order, when sites is None); only those eigenvector rows are
    contracted."""
    t = np.atleast_1d(np.asarray(times, dtype=float))
    w, u = op.eigensystem()
    rows = u if sites is None else u[[op.site_index(n) for n in sites]]
    coeff = u[op.site_index(source), :]
    out = np.empty((t.size, rows.shape[0]), dtype=complex)
    chunk = max(1, int(2e7) // op.dimension)
    for lo in range(0, t.size, chunk):
        hi = min(lo + chunk, t.size)
        phases = np.exp(-1j * np.outer(t[lo:hi], w)) * coeff[None, :]
        out[lo:hi] = phases @ rows.T
    return out


def boundary_mass(op: FiniteOperator, time: float, source: int = 0,
                  width: int = 8) -> float:
    """Probability mass on the outermost width sites of each edge at time t
    (a site in both edges, when dimension < 2 width, counts twice)."""
    width = min(width, op.dimension)
    edges = [*range(-op.N, width - op.N), *range(op.N + 1 - width, op.N + 1)]
    return float(np.sum(np.abs(evolve(op, [time], source, edges)) ** 2))


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
#: most coefficient entries (eigenvalues x columns) the time and Floquet
#: kernel routes pass to one _lorentz_form call
_COLUMN_CHUNK = 2_000_000


def _kernel(rows: np.ndarray, cols: np.ndarray, scale: float,
            a2: float) -> np.ndarray:
    """scale L(rows_r - cols_s), one row per entry of rows."""
    d = rows[:, None] - cols[None, :]
    d *= d
    d += a2
    return np.divide(scale * a2, d, out=d)


def _lorentz_form(lams: np.ndarray, coeffs: np.ndarray,
                  time_scale: float) -> np.ndarray:
    """c^T L c for each real column c of coeffs (shape (N,) or (N, m)),
    L_kk' = L(lam_k - lam_k'), L(x) = a^2/(x^2 + a^2), a = 2/T: an array
    of m values.

    Fast sum: the sorted eigenvalues are cut into blocks of
    b = ceil((2 N p^2 / 3)^(1/3)) consecutive values, or into one block when
    the whole N x N kernel fits in _KERNEL_CHUNK entries.  Two blocks whose
    gap is at least the larger of their widths are admissible: each sees
    the poles of L(x - y) at x - y = +-ia outside the Bernstein ellipse
    rho = 3 + sqrt(8) of the other's interval, so interpolating L at p = 20
    Chebyshev nodes per block errs by about rho^-p ~ 5e-16 relative to the
    kernel there.  Admissible pairs are summed through the kernel on the
    nodes and the blocks' Chebyshev moments, the others directly, one b x b
    kernel and one matrix product over all columns at a time (b^2 stays
    within _KERNEL_CHUNK up to N = 5e5); with one block this is the direct
    sum.  Positions inside a block are measured from its first eigenvalue,
    so kernel arguments are built from exact differences of eigenvalues and
    small offsets, never from node positions rounded to ulp(lambda), which
    is not small against a at large T (a = 2e-7 at T = 1e7).  The error
    stays near 1e-15 of |c|^T L |c| per column (tests/test_transport.py
    compares it with the dense sum).
    """
    a2 = (2.0 / time_scale) ** 2
    p = _CHEB_ORDER
    n = lams.size
    x = np.asarray(lams, dtype=float)
    c = np.ascontiguousarray(coeffs, dtype=float).reshape(n, -1)
    if np.any(x[1:] < x[:-1]):
        order = np.argsort(x, kind="stable")
        x, c = x[order], c[order]
    size = n if n * n <= _KERNEL_CHUNK else \
        int(math.ceil((2.0 * n * p * p / 3.0) ** (1.0 / 3.0)))
    starts = np.arange(0, n, size)
    ends = np.minimum(starts + size, n)
    nblk = starts.size
    start = x[starts]
    width = x[ends - 1] - start
    gap = start[None, :] - x[ends - 1, None]  # from block i up to block j > i
    far = np.triu(gap >= np.maximum.outer(width, width), 1)

    # near pairs directly, i < j counted twice through the kernel's scale;
    # the same pass takes each block's Chebyshev moments
    total = np.zeros(c.shape[1])
    half = 0.5 * width
    moments = np.empty((nblk * p, c.shape[1]))
    for i in range(nblk):
        r = slice(starts[i], ends[i])
        y = _kernel(x[r], x[r], 1.0, a2) @ c[r]
        for j in np.flatnonzero(~far[i, i + 1:]) + i + 1:
            s = slice(starts[j], ends[j])
            y += _kernel(x[r], x[s], 2.0, a2) @ c[s]
        y *= c[r]
        total += y.sum(axis=0)
        if nblk > 1:
            u = (x[r] - start[i] - half[i]) / (half[i] if half[i] > 0 else 1.0)
            basis = np.cos(np.arange(p) * np.arccos(np.clip(u, -1.0, 1.0))
                           [:, None])
            moments[i * p:(i + 1) * p] = (basis @ _CHEB_WEIGHTS).T @ c[r]

    offs = half[:, None] * (1.0 + _CHEB_NODES)  # nodes minus block starts
    rows = max(1, _KERNEL_CHUNK // (p * p * nblk))
    for i0 in range(0, nblk - 1, rows):
        i1 = min(i0 + rows, nblk - 1)
        d = offs[i0:i1, :, None, None] - offs[None, None, i0 + 1:, :]
        d += (start[i0:i1, None] - start[None, i0 + 1:])[:, None, :, None]
        kern = 2.0 * a2 / (d * d + a2)
        kern *= far[i0:i1, None, i0 + 1:, None]
        y = kern.reshape((i1 - i0) * p, -1) @ moments[(i0 + 1) * p:]
        y *= moments[i0 * p:i1 * p]
        total += y.sum(axis=0)
    return total


def abel_probability_time(source, displacement, time_scale: float,
                          config: EvolutionConfig = DEFAULT_CONFIG,
                          radius: int | None = None):
    """P(n; T) through the truncated eigendecomposition, for one
    displacement (a float back) or an array of them (an array back;
    negative, repeated and unsorted entries allowed).

    The Abel time integral of each |amplitude|^2 is evaluated exactly via
    the Lorentzian eigenvalue kernel; the lattice cutoff is validated by a
    boundary-mass check at the Abel horizon.  One eigendecomposition serves
    the whole window, and only the window's columns are summed.
    """
    disp, answer = _window(displacement)
    n_extent = max(abs(int(disp[0])), abs(int(disp[-1]) + 1))
    op = _time_operator(source, radius, time_scale, n_extent, config)
    # both entries of every displacement must be lattice sites
    op.site_index(int(disp[0]))
    op.site_index(int(disp[-1]) + 1)
    _check_truncation(op, time_scale, config)
    return answer(_time_values(op, time_scale, disp))


def _window(displacement):
    """The sorted distinct entries of one displacement or an array of them,
    and the function that returns their values in the caller's form: a
    float for one displacement, an array in the given order (repeats
    included) for an array."""
    disp = np.array([int(n) for n in np.atleast_1d(displacement)],
                    dtype=np.int64)
    if not disp.size:
        raise InputError("need at least one displacement")
    disp, inverse = np.unique(disp, return_inverse=True)

    def answer(values):
        values = values[inverse]
        return float(values[0]) if np.ndim(displacement) == 0 else values

    return disp, answer


def _time_values(op: FiniteOperator, time_scale: float,
                 disp: np.ndarray) -> np.ndarray:
    """P(d; T) on op for each displacement d of disp (inside the lattice
    with d + 1): the two-entry columns u[d + i] * u[i], i = 0, 1, through
    the Lorentz form, at most _COLUMN_CHUNK coefficients per call."""
    w, u = op.eigensystem()
    u0, u1 = u[op.site_index(0)], u[op.site_index(1)]
    rows = disp + op.N  # entry i of displacement d sits at row d + N + i
    out = np.empty(disp.size)
    step = max(1, _COLUMN_CHUNK // (2 * op.dimension))
    for lo in range(0, disp.size, step):
        r = rows[lo:lo + step]
        m = r.size
        # a run of consecutive rows (the whole distribution) is read in
        # place; a sparse window gathers its few rows
        run = r[-1] - r[0] == m - 1
        rows0 = u[r[0]:r[0] + m] if run else u[r]
        rows1 = u[r[0] + 1:r[0] + m + 1] if run else u[r + 1]
        coeffs = np.empty((op.dimension, 2 * m))
        np.multiply(rows0.T, u0[:, None], out=coeffs[:, :m])
        np.multiply(rows1.T, u1[:, None], out=coeffs[:, m:])
        vals = _lorentz_form(w, coeffs, time_scale)
        out[lo:lo + m] = vals[:m] + vals[m:]
    return out


@dataclass(frozen=True)
class TransportDistribution:
    """Abel-averaged site probabilities over a displacement window."""

    time_scale: float
    displacements: np.ndarray = field(repr=False)
    probabilities: np.ndarray = field(repr=False)
    radius: int
    boundary_leak: float

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
                             radius: int | None = None
                             ) -> TransportDistribution:
    """All Abel probabilities P(n; T) on the truncated lattice at once.

    Total mass is 2 up to the truncation and tail tolerances.
    """
    op = _time_operator(source, radius, time_scale, 1, config)
    leak = _check_truncation(op, time_scale, config)
    # both entries exist for the displacements -N .. N-1
    disp = np.arange(-op.N, op.N)
    probs = _time_values(op, time_scale, disp)
    return TransportDistribution(time_scale=float(time_scale),
                                 displacements=disp, probabilities=probs,
                                 radius=op.N, boundary_leak=leak)


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
            radius: int | None = None) -> TransportMoments:
    """Abel-averaged moment sums M_p(T) = sum_n |n|^p P(n; T)."""
    orders = tuple(float(p) for p in np.atleast_1d(orders))
    if not all(math.isfinite(p) and p >= 0 for p in orders):
        raise InputError(f"moment orders must be finite and >= 0, "
                         f"got {orders}")
    dist = probability_distribution(source, time_scale, config, radius)
    absn = np.abs(dist.displacements.astype(float))
    values = tuple(float(np.sum(absn ** p * dist.probabilities))
                   for p in orders)
    return TransportMoments(time_scale=float(time_scale), orders=orders,
                            values=values, distribution=dist)


def _resolvent_radius(time_scale: float, n_extent: int,
                      config: EvolutionConfig) -> int:
    # interior resolvent decay at Im z = 1/T is as slow as e^(-d/(2T))
    radius = 2.5 * time_scale * math.log(4.0 / config.tail_tolerance) \
        + abs(n_extent) + 64
    if not math.isfinite(radius):
        raise InputError(f"time scale {time_scale} has no finite "
                         "resolvent radius")
    return int(math.ceil(radius))


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
    time_scale = _check_time_scale(time_scale)
    disp = [int(n) for n in np.atleast_1d(displacements)]
    if not disp:
        raise InputError("need at least one displacement")
    n_extent = max(max(abs(n), abs(n + 1)) for n in disp)
    if radius is None:
        radius = _resolvent_radius(time_scale, n_extent, config)
    op = _as_finite(source, radius, time_scale, n_extent, config)
    eta = 1.0 / time_scale
    rows0 = np.array([op.site_index(n) for n in disp])
    rows1 = np.array([op.site_index(n + 1) for n in disp])

    def integrand(energies):
        energies = np.atleast_1d(np.asarray(energies, dtype=float))
        out = np.empty((energies.size, len(disp)))
        for k, e in enumerate(energies):
            sol = op.resolvent(e + 1j * eta, sources=(0, 1))
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
    # already granted to the central part would chase rounding noise.  They
    # are smooth, so each starts from one panel and refines where needed
    floor = config.energy_rel_tol * max(
        float(np.max(np.abs(central.value))), 1e-300)
    tail = dict(scale=2.0 * bound, rel_tol=config.energy_rel_tol,
                abs_tol=floor, initial_panels=1)
    right = integrate_right_tail(integrand, bound, **tail)
    left = integrate_left_tail(integrand, -bound, **tail)
    return (central.value + left.value + right.value) / (math.pi * time_scale)


def abel_probability_resolvent(source, displacement: int, time_scale: float,
                               config: EvolutionConfig = DEFAULT_CONFIG,
                               radius: int | None = None) -> float:
    """P(n; T) through the Plancherel resolvent form (single displacement)."""
    profile = abel_resolvent_profile(source, [int(displacement)], time_scale,
                                     config=config, radius=radius)
    return float(profile[0])


def _bloch_data(model: PeriodicModel, points: int, displacements):
    """Eigenvalues on the kappa grid, shape (points, q), and a function
    giving the two-entry spectral coefficients of a slice of displacements.

    For entry i the target site is g = displacement + i = s q + r; the
    extended Bloch wave obeys psi(n + q) = e^(-i q kappa) psi(n), so the
    coefficient of 1/(lambda_j(kappa) - z) in G(g, i; z) is
    e^(-i q kappa s) Psi_j(r) conj(Psi_j(i)) / points.  One eigensystem per
    kappa serves every displacement; only the eigenvector rows of the
    residues r and of the sources are kept.  coefficients(sel) returns the
    coefficients of displacements[sel], shape (points q, k, 2): flattened
    (kappa, j), displacement, entry.
    """
    q = model.q
    disp = np.asarray(displacements, dtype=np.int64).reshape(-1)
    kappas = np.arange(points) * (2.0 * math.pi / q) / points
    src = np.array([0, 1 % q])
    shift = np.array([0, 1 // q])  # delta_1 sits in the next cell when q = 1
    need, slot = np.unique(np.concatenate([src, (disp[:, None] + (0, 1)) % q],
                                          axis=None), return_inverse=True)
    src_slot, row_slot = slot[:2], slot[2:].reshape(-1, 2)
    lams = np.empty((points, q))
    vecs = np.empty((points, q, need.size), dtype=complex)  # kappa, j, row
    for m, kap in enumerate(kappas):
        es = floquet_eigensystem(model, kap)
        lams[m] = es.eigenvalues
        vecs[m] = es.eigenvectors[need].T

    def coefficients(sel):
        s = (disp[sel, None] + (0, 1)) // q
        coeffs = vecs[:, :, row_slot[sel]]
        coeffs *= np.conj(vecs[:, :, src_slot])[:, :, None, :]
        coeffs *= np.exp(-1j * q * kappas[:, None, None] * (s - shift))[:, None]
        coeffs /= points
        return coeffs.reshape(points * q, -1, 2)

    return lams, coefficients


def abel_probability_floquet(model: PeriodicModel, displacement,
                             time_scale: float,
                             config: EvolutionConfig = DEFAULT_CONFIG,
                             route: str = "auto",
                             kappa_points: int | None = None):
    """P(n; T) for a periodic operator through its fiber eigensystems, for
    one displacement (a float back) or an array of them (an array back).

    route='energy' integrates |G|^2 over E with G assembled from the
    quasimomentum grid, one adaptive integral per displacement;
    route='kernel' does the E integral analytically and sums the
    Lorentzian kernel over quasimomentum pairs (preferred for large T),
    the coefficient columns of many displacements per pair sum.  'auto'
    switches at T = 200.  The grid starts at 256 points and doubles; one
    set of fiber eigensystems per grid serves the whole window.  Each
    displacement stops on its own, once a doubling changes its value by
    at most 10 energy_rel_tol of its size (+ 1e-13), and leaves the later
    grids, so every value equals its one-displacement call.
    """
    if not isinstance(model, PeriodicModel):
        raise InputError("the Floquet route needs a PeriodicModel")
    time_scale = _check_time_scale(time_scale)
    if route == "auto":
        route = "kernel" if time_scale > 200.0 else "energy"
    if route not in ("energy", "kernel"):
        raise InputError(f"unknown route {route!r}")
    disp, answer = _window(displacement)
    if kappa_points is not None:
        if int(kappa_points) < 1:
            raise InputError(
                f"need at least one kappa point, got {kappa_points}")
        return answer(_floquet_values(model, disp, time_scale, route,
                                      int(kappa_points), config))
    values = np.full(disp.size, np.nan)
    change = np.full(disp.size, math.inf)
    active = np.ones(disp.size, dtype=bool)
    points = 256
    while points <= config.max_kappa_points:
        val = _floquet_values(model, disp[active], time_scale, route, points,
                              config)
        prev = values[active]
        values[active] = val
        if points > 256:
            change[active] = np.abs(val - prev)
            scale = np.maximum(np.maximum(np.abs(val), np.abs(prev)), 1e-300)
            # 1e-13 floor: below the rounding noise of the double kappa sum
            # a relative test can never settle
            active[active] = ~(change[active] <= 10.0 * config.energy_rel_tol
                               * scale + 1e-13)
            if not active.any():
                return answer(values)
        points *= 2
    raise NumericalError(
        f"quasimomentum grid did not converge below {config.max_kappa_points} "
        f"points: displacements {disp[active].tolist()} last changed by "
        f"{', '.join(f'{c:.3e}' for c in change[active])} at {points // 2}")


def _floquet_values(model: PeriodicModel, disp: np.ndarray,
                    time_scale: float, route: str, points: int,
                    config: EvolutionConfig) -> np.ndarray:
    """P(n; T) for each displacement in disp on one kappa grid."""
    lams, coefficients = _bloch_data(model, points, disp)
    lam_flat = lams.ravel()
    out = np.empty(disp.size)
    if route == "kernel":
        # Re(c_k conj(c_k')) = Re c_k Re c_k' + Im c_k Im c_k': four real
        # columns per displacement, as many displacements per pair sum as
        # _COLUMN_CHUNK allows (at least one)
        step = max(1, _COLUMN_CHUNK // (4 * lam_flat.size))
        for lo in range(0, disp.size, step):
            c = coefficients(slice(lo, lo + step))
            columns = np.concatenate([c.real, c.imag], axis=2)
            del c  # the pair sum holds only the real columns
            vals = _lorentz_form(lam_flat, columns.reshape(lam_flat.size, -1),
                                 time_scale)
            out[lo:lo + step] = vals.reshape(-1, 4).sum(axis=1)
        return out

    eta = 1.0 / time_scale
    for k in range(disp.size):
        c0, c1 = coefficients(slice(k, k + 1))[:, 0].T.copy()

        def integrand(energies):
            energies = np.atleast_1d(np.asarray(energies, dtype=float))
            res = np.empty(energies.size)
            for m, e in enumerate(energies):
                denom = lam_flat - (e + 1j * eta)
                res[m] = abs(np.sum(c0 / denom)) ** 2 + \
                    abs(np.sum(c1 / denom)) ** 2
            return res

        out[k] = _abel_energy_integral(integrand, model.norm_bound + 1.0,
                                       time_scale, config)
    return out


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
