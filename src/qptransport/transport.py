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
    over adaptive energy panels, exterior tails mapped to a bounded
    interval; each refinement level is one resolvent call on the window of
    the requested sites, the lattice outside it folded into two boundary
    continued fractions, and one banded solve per batch of energies;
  * Floquet route (periodic operators): the resolvent entries are assembled
    from the fiber eigensystems on a quasimomentum grid, one set of
    eigensystems per grid for a whole window of displacements; for large T
    the energy integral is eliminated analytically, leaving a double
    quasimomentum sum against the same Lorentzian kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.blas import dgemm

from .arithmetic import Frequency
from .errors import (InputError, NumericalError, TruncationError,
                     check_memory)
from .floquet import floquet_eigensystem
from .operator import FiniteOperator, PeriodicModel, finite_operator
from .quadrature import (adaptive_integrate, integrate_left_tail,
                         integrate_right_tail)


#: Abel weight mass beyond the horizon; it also sets both truncation radii
TAIL_TOLERANCE = 1e-6
#: light-cone bound for unit hopping: the exact front speed is 2, the
#: margin absorbs the Airy widening together with TRUNCATION_PAD
TRUNCATION_SPEED = 2.2
TRUNCATION_PAD = 48.0
#: the boundary-mass check: sites per edge, most mass there at the horizon
BOUNDARY_WIDTH = 8
BOUNDARY_MASS_TOL = 1e-7
#: the time route's constants by name, as the reports that run it record
TIME_ROUTE_CONSTANTS = ("TAIL_TOLERANCE", "TRUNCATION_SPEED", "TRUNCATION_PAD",
                        "BOUNDARY_WIDTH", "BOUNDARY_MASS_TOL")
#: largest quasimomentum grid the Floquet route doubles up to
MAX_KAPPA_POINTS = 65536


@dataclass(frozen=True)
class EvolutionConfig:
    """The accuracy of the energy integrals of the resolvent and Floquet
    routes (and of the Floquet grid's convergence test)."""

    energy_rel_tol: float = 1e-4


DEFAULT_CONFIG = EvolutionConfig()


def _check_time_scale(time_scale) -> float:
    """The Abel time scale T as a float; InputError unless finite and > 0."""
    t = float(time_scale)
    if not (math.isfinite(t) and t > 0):
        raise InputError(
            f"time scale must be finite and positive, got {time_scale}")
    return t


def abel_horizon(time_scale: float) -> float:
    """Time t* past which the Abel weight mass is below TAIL_TOLERANCE."""
    time_scale = _check_time_scale(time_scale)
    return 0.5 * time_scale * math.log(4.0 / TAIL_TOLERANCE)


def truncation_radius(time_scale: float, n_extent: int = 1) -> int:
    """Lattice radius so the horizon-time wavefront stays far from the edge."""
    horizon = abel_horizon(time_scale)
    inner = (TRUNCATION_SPEED * horizon
             + 12.0 * (1.0 + horizon) ** (1.0 / 3.0)
             + TRUNCATION_PAD)
    if not math.isfinite(inner):
        raise InputError(f"time scale {time_scale} has no finite "
                         "truncation radius")
    return int(math.ceil(inner)) + int(abs(n_extent))


def _as_finite(source, radius: int) -> FiniteOperator:
    if isinstance(source, FiniteOperator):
        return source
    return finite_operator(source, radius)


def _time_operator(source, radius: int | None, time_scale: float,
                   n_extent: int) -> FiniteOperator:
    """The time route's truncated operator, built only once its peak fits
    in the machine's physical memory: the dense eigenvectors and the
    eigensolver's workspace beside them (LAPACK ?stevd takes
    dim^2 + 4 dim + 1 doubles) at 8 dim^2 bytes each, plus one column chunk
    of the Lorentz form."""
    if radius is None and not isinstance(source, FiniteOperator):
        radius = truncation_radius(time_scale, n_extent)
    dim = source.dimension if isinstance(source, FiniteOperator) \
        else 2 * radius + 1
    check_memory(8 * (2 * dim * dim + _COLUMN_CHUNK),
                 f"the time route at dimension {dim}")
    return _as_finite(source, radius)


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
        m = min(chunk, t.size - lo)
        # e^(-itw) coeff, real part over imaginary part: one real product
        phases = np.empty((2 * m, w.size))
        np.outer(-t[lo:lo + m], w, out=phases[m:])
        np.cos(phases[m:], out=phases[:m])
        np.sin(phases[m:], out=phases[m:])
        phases *= coeff
        amp = _dot(phases, rows.T)
        out[lo:lo + m].real = amp[:m]
        out[lo:lo + m].imag = amp[m:]
    return out


def boundary_mass(op: FiniteOperator, time: float, source: int = 0) -> float:
    """Probability mass on the outermost BOUNDARY_WIDTH sites of each edge
    at time t (a site in both edges, when dimension < 2 BOUNDARY_WIDTH,
    counts twice)."""
    width = min(BOUNDARY_WIDTH, op.dimension)
    edges = [*range(-op.N, width - op.N), *range(op.N + 1 - width, op.N + 1)]
    return float(np.sum(np.abs(evolve(op, [time], source, edges)) ** 2))


def _check_truncation(op: FiniteOperator, time_scale: float) -> float:
    horizon = abel_horizon(time_scale)
    leak = max(boundary_mass(op, horizon, 0), boundary_mass(op, horizon, 1))
    if leak > BOUNDARY_MASS_TOL:
        raise TruncationError(
            f"boundary mass {leak:.3e} at the Abel horizon t = {horizon:.3g} "
            f"exceeds {BOUNDARY_MASS_TOL:.1e}; "
            f"enlarge the radius (currently {op.N})")
    return leak


#: Chebyshev order of the far field of _lorentz_form, its first-kind nodes
#: on [-1, 1], and the matrix taking T_0..T_(p-1) at a point to the
#: Lagrange weights of those nodes (one row per node)
_CHEB_ORDER = 20
_CHEB_NODES = np.cos((np.arange(_CHEB_ORDER) + 0.5) * np.pi / _CHEB_ORDER)
_CHEB_WEIGHTS = np.cos(np.outer(np.arccos(_CHEB_NODES),
                                np.arange(_CHEB_ORDER))) * (2.0 / _CHEB_ORDER)
_CHEB_WEIGHTS[:, 0] *= 0.5
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


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for real matrices in SciPy's BLAS, the library of the time
    route's eigensolver and of every large product here (two OpenBLAS
    pools on few cores slow each other): (b^T a^T)^T, on transposed views
    that are Fortran-ordered for C-ordered a and b, so neither is copied."""
    return dgemm(1.0, b.T, a.T).T


def _admissible(x: np.ndarray, bounds: np.ndarray):
    """For blocks x[bounds[i]:bounds[i + 1]] of sorted x: the admissible
    pairs (far[i, j] for i < j) and the kernel entries the fast sum builds,
    counted as sum over near pairs i <= j of b_i b_j plus (blocks p)^2 / 2
    on the nodes.  The gaps are taken at most _KERNEL_CHUNK at a time."""
    starts, ends = bounds[:-1], bounds[1:]
    start, last = x[starts], x[ends - 1]
    width = last - start
    far = np.empty((starts.size, starts.size), dtype=bool)
    rows = max(1, _KERNEL_CHUNK // starts.size)
    for r in range(0, starts.size, rows):  # gaps from block i up to block j
        gap = start[None, :] - last[r:r + rows, None]
        far[r:r + rows] = (gap >= width[r:r + rows, None]) & (gap >= width)
    far = np.triu(far, 1)
    i, j = np.nonzero(np.triu(~far))  # near pairs, i <= j
    sizes = (ends - starts).astype(float)
    return far, sizes[i] @ sizes[j] + 0.5 * (starts.size * _CHEB_ORDER) ** 2


def _blocks(x: np.ndarray):
    """The block bounds of _lorentz_form on sorted x (block i is
    x[bounds[i]:bounds[i + 1]]) and their admissible pairs.

    One block when N^2 fits in _KERNEL_CHUNK.  Otherwise, with
    b = ceil((2 N p^2 / 3)^(1/3)) and no block over sqrt(_KERNEL_CHUNK)
    values, each block ends at the widest spacing between b/2 and 3b/2
    values after its start: a critical spectrum is Cantor-like, so cuts at
    its gaps leave far fewer block pairs near each other than cuts every b
    values (Hackbusch, Hierarchical Matrices, 2015, ch. 5).  Cuts every b
    values are kept where they build fewer kernel entries (_admissible),
    as on a spectrum without gaps.
    """
    n = x.size
    if n * n <= _KERNEL_CHUNK:
        return np.array([0, n]), np.zeros((1, 1), dtype=bool)
    cap = math.isqrt(_KERNEL_CHUNK)
    size = min(cap, int(math.ceil(
        (2.0 * n * _CHEB_ORDER ** 2 / 3.0) ** (1.0 / 3.0))))
    lo, hi = size // 2, min(cap, 3 * size // 2)
    spacing = np.diff(x)  # spacing[k] = x[k + 1] - x[k]
    cuts = [0]
    while cuts[-1] < n:
        s = cuts[-1]
        cuts.append(n if n - s <= hi else
                    s + lo + int(np.argmax(spacing[s + lo - 1:s + hi])))
    fixed, gaps = np.append(np.arange(0, n, size), n), np.array(cuts)
    (far, entries), (far_g, entries_g) = (_admissible(x, fixed),
                                          _admissible(x, gaps))
    return (gaps, far_g) if entries_g < entries else (fixed, far)


def _lorentz_form(lams: np.ndarray, coeffs: np.ndarray,
                  time_scale: float) -> np.ndarray:
    """c^T L c for each real column c of coeffs (shape (N,) or (N, m)),
    L_kk' = L(lam_k - lam_k'), L(x) = a^2/(x^2 + a^2), a = 2/T: an array
    of m values.  Every matrix product goes through _dot.

    Fast sum: the sorted eigenvalues are cut into blocks of about
    b = ceil((2 N p^2 / 3)^(1/3)) values that end at the spectrum's widest
    gaps, or every b values where that builds fewer kernel entries
    (_blocks); one block when the N x N kernel fits in _KERNEL_CHUNK.  Two
    blocks whose gap is at least the larger of their widths are admissible:
    each sees the poles of L(x - y) at x - y = +-ia outside the Bernstein
    ellipse rho = 3 + sqrt(8) of the other's interval, so interpolating L at
    p = 20 Chebyshev nodes per block errs by about rho^-p ~ 5e-16 relative
    to the kernel there.  Admissible pairs are summed through the kernel on
    the nodes and the blocks' Chebyshev moments, the others directly, one
    near kernel (at most _KERNEL_CHUNK entries) and one matrix product over
    all columns at a time; with one block this is the direct sum.
    Positions inside a block are measured from its first eigenvalue, so
    kernel arguments are built from exact differences of eigenvalues and
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
    bounds, far = _blocks(x)
    starts, ends = bounds[:-1], bounds[1:]
    nblk = starts.size
    start = x[starts]
    width = x[ends - 1] - start

    # near pairs directly, i < j counted twice through the kernel's scale;
    # the same pass takes each block's Chebyshev moments
    total = np.zeros(c.shape[1])
    half = 0.5 * width
    moments = np.empty((nblk * p, c.shape[1]))
    for i in range(nblk):
        r = slice(starts[i], ends[i])
        y = _dot(_kernel(x[r], x[r], 1.0, a2), c[r])
        for j in np.flatnonzero(~far[i, i + 1:]) + i + 1:
            s = slice(starts[j], ends[j])
            y += _dot(_kernel(x[r], x[s], 2.0, a2), c[s])
        y *= c[r]
        total += y.sum(axis=0)
        if nblk > 1:
            u = (x[r] - start[i] - half[i]) / (half[i] if half[i] > 0 else 1.0)
            basis = np.cos(np.arange(p)[:, None]
                           * np.arccos(np.clip(u, -1.0, 1.0)))
            moments[i * p:(i + 1) * p] = _dot(_dot(_CHEB_WEIGHTS, basis), c[r])

    offs = half[:, None] * (1.0 + _CHEB_NODES)  # nodes minus block starts
    rows = max(1, _KERNEL_CHUNK // (p * p * nblk))
    for i0 in range(0, nblk - 1, rows):
        i1 = min(i0 + rows, nblk - 1)
        d = offs[i0:i1, :, None, None] - offs[None, None, i0 + 1:, :]
        d += (start[i0:i1, None] - start[None, i0 + 1:])[:, None, :, None]
        kern = 2.0 * a2 / (d * d + a2)
        kern *= far[i0:i1, None, i0 + 1:, None]
        y = _dot(kern.reshape((i1 - i0) * p, -1), moments[(i0 + 1) * p:])
        y *= moments[i0 * p:i1 * p]
        total += y.sum(axis=0)
    return total


def abel_probability_time(source, displacement, time_scale: float,
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
    op = _time_operator(source, radius, time_scale, n_extent)
    # both entries of every displacement must be lattice sites
    op.site_index(int(disp[0]))
    op.site_index(int(disp[-1]) + 1)
    _check_truncation(op, time_scale)
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
                             radius: int | None = None
                             ) -> TransportDistribution:
    """All Abel probabilities P(n; T) on the truncated lattice at once.

    Total mass is 2 up to the truncation and tail tolerances.
    """
    op = _time_operator(source, radius, time_scale, 1)
    leak = _check_truncation(op, time_scale)
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
            radius: int | None = None) -> TransportMoments:
    """Abel-averaged moment sums M_p(T) = sum_n |n|^p P(n; T)."""
    orders = tuple(float(p) for p in np.atleast_1d(orders))
    if not orders or not all(math.isfinite(p) and p >= 0 for p in orders):
        raise InputError(f"moment orders must be one or more finite "
                         f"values >= 0, got {orders}")
    dist = probability_distribution(source, time_scale, radius)
    absn = np.abs(dist.displacements.astype(float))
    values = tuple(float(np.sum(absn ** p * dist.probabilities))
                   for p in orders)
    return TransportMoments(time_scale=float(time_scale), orders=orders,
                            values=values, distribution=dist)


def _resolvent_radius(time_scale: float, n_extent: int) -> int:
    # interior resolvent decay at Im z = 1/T is as slow as e^(-d/(2T))
    radius = 2.5 * time_scale * math.log(4.0 / TAIL_TOLERANCE) \
        + abs(n_extent) + 64
    if not math.isfinite(radius):
        raise InputError(f"time scale {time_scale} has no finite "
                         "resolvent radius")
    return int(math.ceil(radius))


def abel_resolvent_profile(source, displacements, time_scale: float,
                           config: EvolutionConfig = DEFAULT_CONFIG):
    """P(n; T) through the Plancherel resolvent form for displacements in
    _window's forms, sharing every resolvent evaluation across them; a
    FiniteOperator source is used as it is.

    Each value is (1/(pi T)) times the integral over E of
    |G(n,0; E+i/T)|^2 + |G(n+1,1; E+i/T)|^2; the two exterior tails are
    integrated through the 1/(E - anchor) substitution rather than merely
    bounded.  Each quadrature level is one windowed resolvent call over all
    of its energies: the window [min(n, 0), max(n + 1, 1)] holds every
    entry read, and the lattice outside it enters through its boundary
    continued fractions.
    """
    time_scale = _check_time_scale(time_scale)
    disp, answer = _window(displacements)
    lo, hi = min(int(disp[0]), 0), max(int(disp[-1]) + 1, 1)
    op = _as_finite(source, _resolvent_radius(time_scale, max(-lo, hi)))
    eta = 1.0 / time_scale
    rows0, rows1 = disp - lo, disp + 1 - lo

    def integrand(energies):
        sol = op.resolvent(np.asarray(energies, dtype=float) + 1j * eta,
                           sources=(0, 1), window=(lo, hi))
        return np.abs(sol[:, rows0, 0]) ** 2 + np.abs(sol[:, rows1, 1]) ** 2

    return answer(_abel_energy_integral(integrand, op.norm_bound + 1.0,
                                        time_scale, config))


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
                               config: EvolutionConfig = DEFAULT_CONFIG
                               ) -> float:
    """P(n; T) through the Plancherel resolvent form (single displacement)."""
    return abel_resolvent_profile(source, int(displacement), time_scale,
                                  config=config)


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
    # the eigenvalues and kept rows, and one displacement's coefficients
    check_memory(points * q * (8 + 16 * need.size + 64),
                 f"the Floquet route on {points} kappa points at q = {q}")
    lams = np.empty((points, q))
    vecs = np.empty((points, q, need.size), dtype=complex)  # kappa, j, row
    for m, kap in enumerate(kappas):
        lams[m], u = floquet_eigensystem(model, kap)
        vecs[m] = u[need].T

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
    while points <= MAX_KAPPA_POINTS:
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
        f"quasimomentum grid did not converge below {MAX_KAPPA_POINTS} "
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
