"""Floquet (Bloch) analysis of q-periodic lattice Schrodinger operators.

The q x q Hermitian fiber matrix carries the one-period potential on its
diagonal, unit hopping on the off-diagonals, and quasimomentum phases
e^{+- i q kappa} in the corners.  Everything downstream of the periodic
theory lives here: the characteristic-polynomial identity linking the fiber
determinant to the discriminant, band structure and widths, eigenvalue and
weight derivatives, and the two-site spectral measure

    mu_kappa(.) = sum_j (|psi_j(0)|^2 + |psi_j(1)|^2) delta_{lambda_j(kappa)},

which has total mass exactly 2.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    DegeneratePointError,
    InputError,
    NearDegenerateError,
    check_memory,
)
from .operator import PeriodicModel, SamplingFunction, periodic_model
from .transfer import cocycle

_EPS_CUBE_ROOT = float(np.finfo(float).eps) ** (1.0 / 3.0)

# |Delta'| below this is treated as a degenerate (closed-gap) point
DEGENERATE_DISCRIMINANT_TOL = 1e-8
# eigenvalue gaps below this make the perturbation series unusable
MIN_PERTURBATION_GAP = 1e-7
# quasimomentum grid of phi_occupation_measure
OCCUPATION_KAPPA_GRID = 256


def floquet_matrix(model: PeriodicModel, kappa: float) -> np.ndarray:
    """Hermitian fiber matrix at quasimomentum kappa.

    Corner entries are e^{i q kappa} (top right) and its conjugate (bottom
    left); for q = 2 they add onto the hopping entries, for q = 1 the matrix
    is the scalar V(0) + 2 cos(kappa).
    """
    q = model.q
    if q == 1:
        return np.array([[model.potential[0] + 2.0 * math.cos(kappa)]],
                        dtype=complex)
    a = np.diag(model.potential.astype(complex))
    idx = np.arange(q - 1)
    a[idx, idx + 1] += 1.0
    a[idx + 1, idx] += 1.0
    phase = cmath.exp(1j * q * kappa)
    a[0, q - 1] += phase
    a[q - 1, 0] += phase.conjugate()
    return a


def _floquet_matrix_kappa_derivative(model: PeriodicModel, kappa: float
                                     ) -> np.ndarray:
    """d/dkappa of the fiber matrix: only the corner phases move."""
    q = model.q
    d = np.zeros((q, q), dtype=complex)
    phase = cmath.exp(1j * q * kappa)
    d[0, q - 1] += 1j * q * phase
    d[q - 1, 0] += -1j * q * phase.conjugate()
    return d


def floquet_eigensystem(model: PeriodicModel, kappa: float):
    """numpy's (eigenvalues, eigenvectors) pair of one fiber matrix:
    eigenvalues ascending, eigenvectors as columns."""
    return np.linalg.eigh(floquet_matrix(model, kappa))


def fiber_eigensystems(model: PeriodicModel, kappas
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and weights phi_j = |psi_j(0)|^2 + |psi_j(1)|^2,
    each (K, q), at K kappas: floquet_eigensystem's, from one eigh call per
    stack of at most max(q^2, 2^16) matrix entries.  For q = 1 site 1 is
    site 0 of the next cell, so phi = 2."""
    kappas = np.asarray(kappas, dtype=float).ravel()
    q = model.q
    per_block = max(1, (1 << 16) // (q * q))
    lams = np.empty((kappas.size, q))
    phi = np.empty((kappas.size, q))
    for lo in range(0, kappas.size, per_block):
        rows = slice(lo, lo + per_block)
        lams[rows], u = np.linalg.eigh(
            np.stack([floquet_matrix(model, k) for k in kappas[rows]]))
        phi[rows] = np.abs(u[:, 0]) ** 2 + np.abs(u[:, 1 % q]) ** 2
    return lams, phi


def discriminant(model: PeriodicModel, energy):
    """Discriminant Delta_q(E) = (-1)^q * trace of the period transfer matrix.

    The sign makes det(A_q(kappa) - E) = Delta_q(E) + 2(-1)^(q-1) cos(q kappa)
    hold for every q; for even q this is the plain transfer trace.  Takes a
    scalar energy (returns a float) or an array of energies.
    """
    e = np.asarray(energy, dtype=float)
    # a = E - V(n) over (sites of one period, *energies, 1)
    a = np.moveaxis(e[..., None] - model.potential, -1, 0)[..., None]
    x, y, log_scale = cocycle(a, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    delta = ((-1) ** model.q) * (np.exp(log_scale) * (x[..., 0] + y[..., 1]))
    return float(delta) if e.ndim == 0 else delta


def discriminant_derivative(model: PeriodicModel, energy: float) -> float:
    """Central-difference d Delta / dE with h = eps^(1/3) * max(1, |E|)."""
    h = _EPS_CUBE_ROOT * max(1.0, abs(energy))
    return (discriminant(model, energy + h)
            - discriminant(model, energy - h)) / (2.0 * h)


@dataclass(frozen=True)
class Band:
    """Band j (1-indexed, ascending) with its kappa = 0 and pi/q edges."""

    j: int
    edge_zero: float   # lambda_j(0)
    edge_pi: float     # lambda_j(pi/q)

    @property
    def lo(self) -> float:
        return min(self.edge_zero, self.edge_pi)

    @property
    def hi(self) -> float:
        return max(self.edge_zero, self.edge_pi)

    @property
    def width(self) -> float:
        return abs(self.edge_pi - self.edge_zero)

    @property
    def center(self) -> float:
        return 0.5 * (self.edge_zero + self.edge_pi)

    def intersects(self, lo: float, hi: float) -> bool:
        return self.lo <= hi and lo <= self.hi


@dataclass(frozen=True)
class BandStructure:
    model: PeriodicModel
    bands: tuple

    @property
    def q(self) -> int:
        return self.model.q

    @property
    def widths(self) -> np.ndarray:
        return np.array([b.width for b in self.bands])

    @property
    def centers(self) -> np.ndarray:
        return np.array([b.center for b in self.bands])

    def band(self, j: int) -> Band:
        if not 1 <= j <= len(self.bands):
            raise InputError(f"band index {j} outside 1..{len(self.bands)}")
        return self.bands[j - 1]


def expected_derivative_sign(q: int, j: int) -> int:
    """Sign of d lambda_j / d kappa on (0, pi/q): alternates from the top.

    The top band (j = q) always decreases as cos(q kappa) runs 2 -> -2.
    """
    return -1 if (q - j) % 2 == 0 else 1


def band_structure(model: PeriodicModel) -> BandStructure:
    """Bands from the kappa = 0 and pi/q eigenvalues, one stacked solve:
    each lambda_j is monotone between them."""
    lam0, lam_pi = fiber_eigensystems(model, [0.0, math.pi / model.q])[0]
    return BandStructure(model=model, bands=tuple(
        Band(j=j, edge_zero=float(a), edge_pi=float(b))
        for j, (a, b) in enumerate(zip(lam0, lam_pi), start=1)))


def _check_interior_kappa(model: PeriodicModel, kappa: float):
    if not 0.0 <= kappa <= math.pi / model.q:
        raise InputError(
            f"kappa {kappa} outside the reduced interval [0, pi/{model.q}]")


def eigenvalue_derivative(model: PeriodicModel, kappa: float, j: int) -> float:
    """d lambda_j / d kappa from the discriminant identity.

    |Delta'(lambda_j)| |lambda_j'| = 2 q |sin(q kappa)| with the parity-
    alternating sign; j is 1-indexed.  Raises at degenerate points where
    Delta' vanishes (touching bands).
    """
    q = model.q
    _check_interior_kappa(model, kappa)
    if not 1 <= j <= q:
        raise InputError(f"band index {j} outside 1..{q}")
    lam = floquet_eigensystem(model, kappa)[0][j - 1]
    dprime = discriminant_derivative(model, lam)
    if abs(dprime) < DEGENERATE_DISCRIMINANT_TOL:
        raise DegeneratePointError(
            f"discriminant derivative {dprime:.3g} at lambda_{j}({kappa:.6g}) "
            "is below resolution (closed gap / touching bands)")
    mag = 2.0 * q * abs(math.sin(q * kappa)) / abs(dprime)
    return expected_derivative_sign(q, j) * mag


def phi_derivative(model: PeriodicModel, kappa: float, j: int) -> float:
    """d phi_j / d kappa by first-order perturbation of the eigenvector.

    psi_dot_j = sum_{k != j} <psi_k, Adot psi_j> / (lambda_j - lambda_k) psi_k
    with Adot supported on the two corners.  Raises when the spacing to the
    nearest neighbor is below MIN_PERTURBATION_GAP (scaled).
    """
    q = model.q
    if q < 2:
        raise InputError("phi derivative needs q >= 2")
    _check_interior_kappa(model, kappa)
    if not 1 <= j <= q:
        raise InputError(f"band index {j} outside 1..{q}")
    lam, u = floquet_eigensystem(model, kappa)
    jj = j - 1
    gaps = np.abs(lam - lam[jj])
    gaps[jj] = np.inf
    scale = max(1.0, model.norm_bound)
    min_gap = float(np.min(gaps))
    if min_gap < MIN_PERTURBATION_GAP * scale:
        raise NearDegenerateError(
            f"eigenvalue gap {min_gap:.3g} at kappa={kappa:.6g} below the "
            f"minimum {MIN_PERTURBATION_GAP * scale:.3g} for the perturbation "
            "formula")
    adot = _floquet_matrix_kappa_derivative(model, kappa)
    delta = lam[jj] - lam
    delta[jj] = np.inf  # self term excluded
    coeff = (u.conj().T @ (adot @ u[:, jj])) / delta
    psi_dot = u @ coeff
    psi = u[:, jj]
    return float(2.0 * (psi[0].conjugate() * psi_dot[0]).real
                 + 2.0 * (psi[1].conjugate() * psi_dot[1]).real)


def interior_window(q: int) -> tuple[float, float]:
    """The kappa window [pi/(16 q^2), pi/q - pi/(16 q^2)]."""
    edge = math.pi / (16.0 * q * q)
    return edge, math.pi / q - edge


def derivative_sandwich(model: PeriodicModel, kappa: float,
                        width: float) -> tuple[float, float]:
    """Bounds on |lambda_j'(kappa)| over (0, pi/q), for the band j whose
    width is given (the bounds depend on j through it alone).

    lower = 2 q sin(q kappa) * width / (4 e)
    upper = 2 q sin(q kappa) * width / ((1 + sqrt 5)(1 - |cos(q kappa)|))
    """
    q = model.q
    if not 0.0 < kappa < math.pi / q:
        raise InputError("sandwich bounds hold on the open interval (0, pi/q)")
    s = 2.0 * q * abs(math.sin(q * kappa)) * width
    lower = s / (4.0 * math.e)
    upper = s / ((1.0 + math.sqrt(5.0)) * (1.0 - abs(math.cos(q * kappa))))
    return lower, upper


def _band_meets(model: PeriodicModel, interval: tuple[float, float]) -> bool:
    """Whether a band, widened by 1e-9 max(1, norm_bound), meets [a, b]:
    each lambda_j(kappa) stays between its two band edges."""
    a, b = interval
    tol = 1e-9 * max(1.0, model.norm_bound)
    return any(band.lo - tol <= b and a <= band.hi + tol
               for band in band_structure(model).bands)


def _interval_masses(model: PeriodicModel, kappa,
                     interval: tuple[float, float]):
    """(spectral_measure_interval, whether a band meets [a, b])."""
    a, b = interval
    if not a <= b:
        raise InputError(f"empty interval [{a}, {b}]")
    if model.q < 2:
        raise InputError("the two-site spectral measure needs q >= 2")
    if not _band_meets(model, interval):
        return ([0.0] * np.size(kappa) if np.ndim(kappa) else 0.0), False
    lams, phi = fiber_eigensystems(model, kappa)
    masses = [float(np.sum(p[(w >= a) & (w <= b)])) for w, p in zip(lams, phi)]
    return (masses if np.ndim(kappa) else masses[0]), True


def spectral_measure_interval(model: PeriodicModel, kappa,
                              interval: tuple[float, float]):
    """mu_kappa([a, b]): sum of phi_j over eigenvalues in the closed
    interval; a list of masses when kappa is an array.  When no band meets
    [a, b] (_band_meets), no fiber is solved: all 0.0."""
    return _interval_masses(model, kappa, interval)[0]


@dataclass(frozen=True)
class MeasureLowerBound:
    eta: float
    theta_argmin: float
    kappa_argmin: float
    theta_count: int
    kappa_count: int
    #: phases whose interval meets no band, so that their eta is 0.0
    bandless_phases: int


def measure_kappa_infimum(model: PeriodicModel, interval: tuple[float, float],
                          kappa_grid: int = 64) -> tuple[float, float]:
    """Infimum over a kappa grid of mu_kappa(interval); returns (eta, argmin)."""
    return _kappa_infimum(model, interval, kappa_grid)[:2]


def _kappa_infimum(model: PeriodicModel, interval: tuple[float, float],
                   kappa_grid: int) -> tuple[float, float, bool]:
    """(eta, argmin, whether a band meets the interval)."""
    if kappa_grid < 2:
        raise InputError(f"kappa_grid must be >= 2, got {kappa_grid}")
    # the grid, its eigenvalues and weights, and a list of float masses
    check_memory(8 * kappa_grid * (2 * model.q + 5),
                 f"a measure infimum on {kappa_grid} kappa points")
    kappas = np.linspace(0.0, math.pi / model.q, kappa_grid)
    masses, meets = _interval_masses(model, kappas, interval)
    k = int(np.argmin(masses))
    return masses[k], float(kappas[k]), meets


def measure_uniform_lower_bound(f: SamplingFunction, alpha: Fraction,
                                interval: tuple[float, float],
                                theta_grid: int = 16,
                                kappa_grid: int = 64) -> MeasureLowerBound:
    """eta = inf over (theta, kappa) grids of mu_{kappa, theta}(interval)."""
    if theta_grid < 1:
        raise InputError(f"theta_grid must be >= 1, got {theta_grid}")
    thetas = np.arange(theta_grid) / theta_grid
    best = None
    bandless = 0
    for theta in thetas:
        model = periodic_model(f, alpha, float(theta))
        eta, kap, meets = _kappa_infimum(model, interval, kappa_grid)
        bandless += not meets
        if best is None or eta < best[0]:
            best = (eta, float(theta), kap)
    return MeasureLowerBound(eta=best[0], theta_argmin=best[1],
                             kappa_argmin=best[2], theta_count=theta_grid,
                             kappa_count=kappa_grid, bandless_phases=bandless)


def phi_occupation_measure(model: PeriodicModel, j: int,
                           threshold: float) -> float:
    """Lebesgue measure (on [0, pi/q]) of {kappa : phi_j(kappa) > threshold},
    estimated on a uniform grid of OCCUPATION_KAPPA_GRID points."""
    q = model.q
    if q < 2:
        raise InputError("phi occupation needs q >= 2")
    if not 1 <= j <= q:
        raise InputError(f"band index {j} outside 1..{q}")
    _, phi = fiber_eigensystems(model, np.linspace(0.0, math.pi / q,
                                                   OCCUPATION_KAPPA_GRID))
    count = int(np.count_nonzero(phi[:, j - 1] > threshold))
    return (count / OCCUPATION_KAPPA_GRID) * (math.pi / q)
