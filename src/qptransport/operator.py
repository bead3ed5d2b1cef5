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


class SamplingFunction:
    """Real 1-periodic function on the circle, with a Lipschitz constant."""

    def __call__(self, x):
        raise NotImplementedError

    @property
    def lipschitz_constant(self) -> float:
        raise NotImplementedError


class AmoSampling(SamplingFunction):
    """f(x) = 2 * coupling * cos(2 pi x), the almost Mathieu sampling."""

    def __init__(self, coupling: float):
        self.coupling = float(coupling)

    def __call__(self, x):
        return 2.0 * self.coupling * np.cos(TWO_PI * np.asarray(x, dtype=float))

    @property
    def lipschitz_constant(self) -> float:
        return 2.0 * TWO_PI * abs(self.coupling)

    def __repr__(self):
        return f"AmoSampling(coupling={self.coupling})"


class ZeroSampling(SamplingFunction):
    """Free Laplacian: f = 0."""

    def __call__(self, x):
        return np.zeros_like(np.asarray(x, dtype=float))

    @property
    def lipschitz_constant(self) -> float:
        return 0.0

    def __repr__(self):
        return "ZeroSampling()"


class TableSampling(SamplingFunction):
    """Piecewise-linear interpolation of K uniform samples on [0, 1), wrapped."""

    def __init__(self, values):
        vals = np.asarray(values, dtype=float)
        if vals.ndim != 1 or vals.size < 2:
            raise InputError("table sampling needs a 1-d array of >= 2 values")
        self.values = vals
        k = vals.size
        self._xp = np.arange(k + 1) / k
        self._fp = np.concatenate([vals, vals[:1]])

    def __call__(self, x):
        xm = np.asarray(x, dtype=float) % 1.0
        return np.interp(xm, self._xp, self._fp)

    @property
    def lipschitz_constant(self) -> float:
        k = self.values.size
        return float(np.max(np.abs(self._fp[1:] - self._fp[:-1])) * k)

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
        # products would overflow int64: exact big-int residues, one at a time
        res = np.array([(n * p) % q for n in n_list], dtype=float)
        return (theta + res / float(q)) % 1.0
    return (theta + np.asarray(n_values, dtype=float) * float(alpha)) % 1.0


def sample_potential(f: SamplingFunction, alpha, theta: float,
                     n_lo: int, n_hi: int) -> np.ndarray:
    """V(n) = f(theta + n*alpha) for n = n_lo..n_hi inclusive."""
    if n_hi < n_lo:
        raise InputError(f"empty sample range [{n_lo}, {n_hi}]")
    _validate_alpha(alpha)
    pts = _orbit_points(alpha, theta, range(n_lo, n_hi + 1))
    return np.asarray(f(pts), dtype=float)


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

    def potential(self, n_lo: int, n_hi: int) -> np.ndarray:
        return sample_potential(self.f, self.alpha, self.theta, n_lo, n_hi)

    @property
    def norm_bound(self) -> float:
        """Upper bound on the operator norm, 2 + sup|f|."""
        # sup|f| from a scan; exact for the analytic kinds
        if isinstance(self.f, AmoSampling):
            sup = 2.0 * abs(self.f.coupling)
        elif isinstance(self.f, ZeroSampling):
            sup = 0.0
        elif isinstance(self.f, TableSampling):
            sup = float(np.max(np.abs(self.f.values)))
        else:
            sup = float(np.max(np.abs(self.f(np.linspace(0, 1, 4096, endpoint=False)))))
        return 2.0 + sup


@dataclass(frozen=True)
class PeriodicModel:
    """A q-periodic potential, one period V(0..q-1), with its provenance."""

    alpha: Fraction | None
    theta: float
    potential: np.ndarray = field(repr=False)

    def __post_init__(self):
        pot = np.asarray(self.potential, dtype=float)
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

    def site_value(self, n: int) -> float:
        return float(self.potential[n % self.q])

    def extended(self, n_lo: int, n_hi: int) -> np.ndarray:
        idx = np.arange(n_lo, n_hi + 1) % self.q
        return self.potential[idx]

    @classmethod
    def from_potential(cls, values, alpha: Fraction | None = None,
                       theta: float = 0.0) -> "PeriodicModel":
        return cls(alpha=alpha, theta=theta, potential=np.asarray(values, dtype=float))


def periodic_model(f: SamplingFunction, alpha: Fraction, theta: float = 0.0
                   ) -> PeriodicModel:
    """Sample one period of f along the rotation orbit of p/q."""
    if not isinstance(alpha, Fraction):
        raise InputError("periodic model needs a Fraction frequency")
    _validate_alpha(alpha)
    q = alpha.denominator
    pot = sample_potential(f, alpha, theta, 0, q - 1)
    return PeriodicModel(alpha=alpha, theta=theta, potential=pot)


class FiniteOperator:
    """Dirichlet restriction of H to the sites -N..N (dimension 2N+1)."""

    def __init__(self, diagonal, N: int):
        diag = np.asarray(diagonal, dtype=float)
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

    def dense(self) -> np.ndarray:
        h = np.diag(self.diagonal)
        off = np.ones(self.dimension - 1)
        h += np.diag(off, 1) + np.diag(off, -1)
        return h

    def tridiagonal(self):
        """(diagonal, offdiagonal) bands for banded solvers."""
        return self.diagonal, np.ones(self.dimension - 1)

    def eigensystem(self):
        """Cached (eigenvalues, eigenvectors); columns of U are eigenvectors."""
        if self._eig is None:
            try:
                w, u = scipy.linalg.eigh_tridiagonal(*self.tridiagonal())
            except np.linalg.LinAlgError:
                # stemr can fail on tightly clustered spectra; the QR driver
                # is slower but does not give up
                w, u = scipy.linalg.eigh_tridiagonal(*self.tridiagonal(),
                                                     lapack_driver="stev")
            self._eig = (w, u)
        return self._eig

    def resolvent(self, z: complex, sources=(0,)) -> np.ndarray:
        """Columns G(., s; z) = (H - z)^(-1) delta_s, one per source site s,
        from one banded solve."""
        diag, off = self.tridiagonal()
        ab = np.zeros((3, self.dimension), dtype=complex)
        ab[0, 1:] = off
        ab[2, :-1] = off
        ab[1, :] = diag - z
        rhs = np.zeros((self.dimension, len(sources)), dtype=complex)
        for k, s in enumerate(sources):
            rhs[self.site_index(s), k] = 1.0
        # both arrays are built per call, so the solver may work in place
        return scipy.linalg.solve_banded((1, 1), ab, rhs, overwrite_ab=True,
                                         overwrite_b=True, check_finite=False)


def finite_operator(source, N: int) -> FiniteOperator:
    """Restrict a Chain or PeriodicModel to [-N, N] with Dirichlet cutoff."""
    if isinstance(source, Chain):
        diag = source.potential(-N, N)
    elif isinstance(source, PeriodicModel):
        diag = source.extended(-N, N)
    else:
        raise InputError(
            f"cannot build a finite operator from {type(source).__name__}")
    return FiniteOperator(diag, N)
