"""Lattice Schrodinger operators H psi(n) = psi(n-1) + psi(n+1) + V(n) psi(n).

The potential is a sampling function evaluated along an orbit of the circle
rotation, V(n) = f(theta + n*alpha mod 1).  Rational alpha = p/q is kept as
an exact Fraction so that the sampled potential is exactly q-periodic in
floating point (the residues n*p mod q repeat exactly).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
import scipy.linalg

from .errors import InputError

TWO_PI = 2.0 * math.pi
#: most band entries (three per row) one banded solve of
#: FiniteOperator.resolvent takes; larger batches of z are solved in chunks
_BAND_CHUNK = 1 << 18


class SamplingFunction:
    """Real 1-periodic function on the circle."""

    def __call__(self, x):
        raise NotImplementedError


class AmoSampling(SamplingFunction):
    """f(x) = 2 * coupling * cos(2 pi x), the almost Mathieu sampling."""

    def __init__(self, coupling: float):
        self.coupling = float(_finite(coupling, "coupling"))

    def __call__(self, x):
        return 2.0 * self.coupling * np.cos(TWO_PI * np.asarray(x, dtype=float))

    def __repr__(self):
        return f"AmoSampling(coupling={self.coupling})"


class ZeroSampling(SamplingFunction):
    """Free Laplacian: f = 0."""

    def __call__(self, x):
        return np.zeros_like(np.asarray(x, dtype=float))

    def __repr__(self):
        return "ZeroSampling()"


class TableSampling(SamplingFunction):
    """Piecewise-linear interpolation of K uniform samples on [0, 1), wrapped."""

    def __init__(self, values):
        vals = _finite(values, "table sampling values")
        if vals.ndim != 1 or vals.size < 2:
            raise InputError("table sampling needs a 1-d array of >= 2 values")
        self.values = vals
        k = vals.size
        self._xp = np.arange(k + 1) / k
        self._fp = np.concatenate([vals, vals[:1]])

    def __call__(self, x):
        xm = np.asarray(x, dtype=float) % 1.0
        return np.interp(xm, self._xp, self._fp)

    def __repr__(self):
        return f"TableSampling(<{self.values.size} values>)"


def _orbit_points(alpha, theta: float, n_values) -> np.ndarray:
    """theta + n*alpha mod 1 for each n, exact residues when alpha is rational."""
    if isinstance(alpha, Fraction):
        p, q = alpha.numerator, alpha.denominator
        n_list = [int(n) for n in n_values]
        n_peak = max((abs(n) for n in n_list), default=0)
        if n_peak * abs(p) < (1 << 62):
            n_arr = np.asarray(n_list, dtype=np.int64)
            res = (n_arr * p) % q
            return (theta + res / q) % 1.0
        # products would overflow int64: exact big-int residues, each
        # divided by q in integer arithmetic (one rounding, and no float of
        # a q past 1e308)
        res = np.array([(n * p) % q / q for n in n_list])
        return (theta + res) % 1.0
    return (theta + np.asarray(n_values, dtype=float) * float(alpha)) % 1.0


def sample_potential(f: SamplingFunction, alpha, theta: float,
                     n_lo: int, n_hi: int) -> np.ndarray:
    """V(n) = f(theta + n*alpha) for n = n_lo..n_hi inclusive."""
    if n_hi < n_lo:
        raise InputError(f"empty sample range [{n_lo}, {n_hi}]")
    _validate_alpha(alpha)
    pts = _orbit_points(alpha, theta, range(n_lo, n_hi + 1))
    return np.asarray(f(pts), dtype=float)


def _finite(values, what: str) -> np.ndarray:
    """values as a float array (0-d for a number); InputError if an entry
    is NaN or infinite."""
    arr = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise InputError(f"{what} must be finite")
    return arr


def _validate_alpha(alpha):
    if isinstance(alpha, Fraction):
        if not 0 < alpha < 1:
            raise InputError(f"frequency must lie in (0, 1), got {alpha}")
    else:
        a = float(alpha)
        if not (math.isfinite(a) and 0 < a < 1):
            raise InputError(f"frequency must lie in (0, 1), got {alpha}")


@dataclass(frozen=True)
class Chain:
    """An infinite chain: sampling function + frequency + phase."""

    f: SamplingFunction
    alpha: object          # float or Fraction
    theta: float = 0.0

    def __post_init__(self):
        _validate_alpha(self.alpha)
        _finite(self.theta, "phase")

    def potential(self, n_lo: int, n_hi: int) -> np.ndarray:
        return sample_potential(self.f, self.alpha, self.theta, n_lo, n_hi)


@dataclass(frozen=True)
class PeriodicModel:
    """A q-periodic potential, one period V(0..q-1), with its provenance."""

    alpha: Fraction | None
    theta: float
    potential: np.ndarray = field(repr=False)

    def __post_init__(self):
        _finite(self.theta, "phase")
        pot = _finite(self.potential, "periodic potential")
        object.__setattr__(self, "potential", pot)
        if pot.ndim != 1 or pot.size < 1:
            raise InputError("periodic potential must be a nonempty 1-d array")
        if self.alpha is not None and pot.size != self.alpha.denominator:
            raise InputError(
                f"period {pot.size} does not match denominator of {self.alpha}")

    @property
    def q(self) -> int:
        return self.potential.size

    @property
    def norm_bound(self) -> float:
        return 2.0 + float(np.max(np.abs(self.potential))) if self.q else 2.0

    def extended(self, n_lo: int, n_hi: int) -> np.ndarray:
        idx = np.arange(n_lo, n_hi + 1) % self.q
        return self.potential[idx]

    @classmethod
    def from_potential(cls, values) -> "PeriodicModel":
        return cls(alpha=None, theta=0.0, potential=values)


def periodic_model(f: SamplingFunction, alpha: Fraction, theta: float = 0.0
                   ) -> PeriodicModel:
    """Sample one period of f along the rotation orbit of p/q."""
    if not isinstance(alpha, Fraction):
        raise InputError("periodic model needs a Fraction frequency")
    _validate_alpha(alpha)
    _finite(theta, "phase")  # before the phase is sampled
    q = alpha.denominator
    pot = sample_potential(f, alpha, theta, 0, q - 1)
    return PeriodicModel(alpha=alpha, theta=theta, potential=pot)


class FiniteOperator:
    """Dirichlet restriction of H to the sites -N..N (dimension 2N+1)."""

    def __init__(self, diagonal, N: int):
        diag = _finite(diagonal, "diagonal")
        if N < 0:
            raise InputError(f"N must be >= 0, got {N}")
        if diag.shape != (2 * N + 1,):
            raise InputError(
                f"diagonal has shape {diag.shape}, expected ({2 * N + 1},)")
        self.N = N
        self.diagonal = diag
        self._eig = None

    @property
    def dimension(self) -> int:
        return 2 * self.N + 1

    def site_index(self, n: int) -> int:
        """Row index of lattice site n (site 0 sits in the middle)."""
        if abs(n) > self.N:
            raise InputError(f"site {n} outside [-{self.N}, {self.N}]")
        return n + self.N

    @property
    def norm_bound(self) -> float:
        return 2.0 + float(np.max(np.abs(self.diagonal)))

    def eigensystem(self):
        """Cached (eigenvalues, eigenvectors); columns of U are eigenvectors."""
        if self._eig is None:
            bands = self.diagonal, np.ones(self.dimension - 1)
            try:
                w, u = scipy.linalg.eigh_tridiagonal(*bands)
            except np.linalg.LinAlgError:
                # SciPy's default ("auto", LAPACK stevd) can fail on
                # tightly clustered spectra; QR iteration (stev) is slower
                # but does not give up
                w, u = scipy.linalg.eigh_tridiagonal(*bands,
                                                     lapack_driver="stev")
            self._eig = (w, u)
        return self._eig

    def resolvent(self, z, sources=(0,), window=None) -> np.ndarray:
        """Entries G(n, s; z) = (H - z)^(-1)(n, s) for each site n of
        window = (lo, hi) (the whole lattice when None) and each source s in
        it: shape (sites, sources) for one z, one such block per entry for
        an array of z.

        The lattice outside the window enters as two boundary self-energies:
        the Dirichlet continued fractions x <- 1/(V_k - z - x) swept in from
        each edge (Weyl m-functions; Teschl, Jacobi Operators and Completely
        Integrable Nonlinear Lattices, AMS 2000, ch. 2), both edges in one
        loop over every z.  With Im z != 0 each denominator has |Im| >=
        |Im z| (by induction from x = 0), so the sweep needs no pivoting.
        The window systems of all z are then solved as one block-diagonal
        band, at most _BAND_CHUNK band entries per banded solve.
        """
        zs = np.asarray(z, dtype=complex)
        lo, hi = (-self.N, self.N) if window is None else window
        a, b = self.site_index(lo), self.site_index(hi)
        cols = [self.site_index(s) - a for s in sources]
        if not all(0 <= c <= b - a for c in cols):
            raise InputError(f"sources {sources} outside the window "
                             f"[{lo}, {hi}]")
        flat = zs.reshape(-1)
        # the sweeps run aligned at the window, row 0 over the sites
        # 0 .. a-1 and row 1 over dim-1 .. b+1; the shorter one is padded at
        # its start and set back to x = 0 where its own sites begin
        outer = (a, self.dimension - 1 - b)
        steps, pad = max(outer), max(outer) - min(outer)
        if steps and np.any(flat.imag == 0.0):
            raise InputError("a window inside the lattice needs Im z != 0")
        pot = np.zeros((steps, 2, 1))
        pot[steps - a:, 0, 0] = self.diagonal[:a]
        pot[steps - outer[1]:, 1, 0] = self.diagonal[:b:-1]
        x = np.zeros((2, flat.size), dtype=complex)
        per = max(1, _BAND_CHUNK // (2 * flat.size))
        for first in range(0, steps, per):
            for k, v in enumerate(pot[first:first + per] - flat, first):
                np.subtract(v, x, out=x)
                np.reciprocal(x, out=x)
                if k == pad - 1:
                    x[int(np.argmin(outer))] = 0.0
        width = b - a + 1
        diag = self.diagonal[a:b + 1] - flat[:, None]
        diag[:, 0] -= x[0]
        diag[:, -1] -= x[1]
        out = np.empty((flat.size, width, len(cols)), dtype=complex)
        per = max(1, _BAND_CHUNK // (3 * width))
        for first in range(0, flat.size, per):
            m = min(per, flat.size - first)
            # unit hopping inside each block, none between consecutive blocks
            ab = np.ones((3, m, width), dtype=complex)
            ab[0, :, 0] = ab[2, :, -1] = 0.0
            ab[1] = diag[first:first + m]
            rhs = np.zeros((m, width, len(cols)), dtype=complex)
            rhs[:, cols, range(len(cols))] = 1.0
            # both arrays are built per call, so the solver may work in place
            out[first:first + m] = scipy.linalg.solve_banded(
                (1, 1), ab.reshape(3, -1), rhs.reshape(m * width, -1),
                overwrite_ab=True, overwrite_b=True,
                check_finite=False).reshape(m, width, -1)
        return out.reshape(zs.shape + out.shape[1:])


def lattice_potential(source, n_lo: int, n_hi: int) -> np.ndarray:
    """V(n) for n = n_lo..n_hi of a Chain or a PeriodicModel."""
    if isinstance(source, Chain):
        return source.potential(n_lo, n_hi)
    if isinstance(source, PeriodicModel):
        return source.extended(n_lo, n_hi)
    raise InputError(f"cannot read a lattice potential from "
                     f"{type(source).__name__}")


def finite_operator(source, N: int) -> FiniteOperator:
    """Restrict a Chain or PeriodicModel to [-N, N] with Dirichlet cutoff."""
    return FiniteOperator(lattice_potential(source, -N, N), N)
