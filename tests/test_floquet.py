"""Floquet fiber matrices, the determinant/discriminant identity, bands,
derivatives, and the two-site spectral measure.

Determinant-identity expectations use numpy's det as the independent oracle;
free-Laplacian eigenvalues use the closed form 2 cos(kappa + 2 pi k / q).
"""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from qptransport import floquet
from qptransport.errors import (DegeneratePointError, InputError,
                                MemoryLimitError)
from qptransport.floquet import (
    Band,
    band_structure,
    derivative_sandwich,
    discriminant,
    discriminant_derivative,
    eigenvalue_derivative,
    expected_derivative_sign,
    fiber_eigensystems,
    floquet_eigensystem,
    floquet_matrix,
    interior_window,
    measure_kappa_infimum,
    measure_uniform_lower_bound,
    phi_derivative,
    phi_occupation_measure,
    spectral_measure_interval,
)
from qptransport.operator import (AmoSampling, PeriodicModel, ZeroSampling,
                                  periodic_model)

RNG = np.random.default_rng(20240811)


def random_model(q, scale=2.0, rng=RNG):
    return PeriodicModel.from_potential(rng.uniform(-scale, scale, size=q))


def phi_derivative_edge_bound(q, width):
    """Bound C3 q^4 / width on |phi_j'| over the interior window: the bound
    8e q^2 / (width (1 - |cos(q kappa)|)) at the window edge
    kappa = pi/(16 q^2), where it is largest."""
    kappa_edge = math.pi / (16.0 * q * q)
    return 8.0 * math.e * q * q / (width * (1.0 - abs(math.cos(q * kappa_edge))))


def free_model(q):
    return PeriodicModel.from_potential(np.zeros(q))


# ── fiber matrix ────────────────────────────────────────────────────────────

def test_matrix_q2_kappa0():
    m = free_model(2)
    a = floquet_matrix(m, 0.0)
    np.testing.assert_allclose(a, [[0, 2], [2, 0]], atol=1e-14)


def test_matrix_q2_corner_merges_with_hopping():
    m = free_model(2)
    kappa = 0.3
    a = floquet_matrix(m, kappa)
    assert a[0, 1] == pytest.approx(1 + np.exp(2j * kappa))
    assert a[1, 0] == pytest.approx(1 + np.exp(-2j * kappa))


def test_matrix_q1_scalar():
    m = PeriodicModel.from_potential([0.7])
    a = floquet_matrix(m, 0.4)
    assert a.shape == (1, 1)
    assert a[0, 0] == pytest.approx(0.7 + 2 * math.cos(0.4))


def hand_fiber_matrix(model, kappa):
    """The fiber matrix entry by entry, with cmath's corner phase."""
    q = model.q
    if q == 1:
        return np.array([[model.potential[0] + 2.0 * math.cos(kappa)]],
                        dtype=complex)
    a = np.zeros((q, q), dtype=complex)
    for n in range(q):
        a[n, n] = model.potential[n]
    for n in range(q - 1):
        a[n, n + 1] += 1.0
        a[n + 1, n] += 1.0
    phase = cmath.exp(1j * q * kappa)
    a[0, q - 1] += phase
    a[q - 1, 0] += phase.conjugate()
    return a


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 13), st.integers(0, 2**32 - 1), st.integers(1, 300))
def test_fiber_matrix_is_the_hand_built_matrix(q, seed, count):
    # the strided builder on random and on Floquet-grid kappas, bit for bit
    rng = np.random.default_rng(seed)
    model = random_model(q, rng=rng)
    for kappas in (rng.uniform(-1.0, 4.0, count),
                   np.arange(count) * (2.0 * math.pi / q) / count):
        for kappa in kappas:
            assert np.array_equal(floquet_matrix(model, kappa),
                                  hand_fiber_matrix(model, kappa))


@pytest.mark.parametrize("q", [2, 3, 5, 8])
def test_matrix_hermitian(q):
    m = random_model(q)
    a = floquet_matrix(m, 0.77 / q)
    np.testing.assert_allclose(a, a.conj().T, atol=1e-14)


def test_free_eigenvalues_closed_form():
    q, kappa = 3, 0.1
    w, _ = floquet_eigensystem(free_model(q), kappa)
    expect = np.sort([2 * math.cos(kappa + 2 * math.pi * k / q) for k in range(q)])
    np.testing.assert_allclose(w, expect, atol=1e-12)


@given(q=st.integers(2, 9), kappa=st.floats(0, 1))
@settings(max_examples=60, deadline=None)
def test_free_eigenvalues_closed_form_property(q, kappa):
    kappa = kappa * math.pi / q
    w, _ = floquet_eigensystem(free_model(q), kappa)
    expect = np.sort([2 * math.cos(kappa + 2 * math.pi * k / q) for k in range(q)])
    np.testing.assert_allclose(w, expect, atol=1e-10)


# ── discriminant and the determinant identity ───────────────────────────────

def test_discriminant_free_q2():
    assert discriminant(free_model(2), 0.0) == pytest.approx(-2.0)


def test_discriminant_q2_closed_form():
    a, b = 0.9, -1.7
    m = PeriodicModel.from_potential([a, b])
    for e in (-2.3, 0.0, 0.4, 3.1):
        assert discriminant(m, e) == pytest.approx((e - a) * (e - b) - 2.0)


def test_discriminant_q1():
    m = PeriodicModel.from_potential([0.5])
    # det(A - E) = V0 + 2 cos(kappa) - E must equal Delta_1(E) + 2 cos(kappa)
    for e in (-1.0, 0.2, 2.5):
        assert discriminant(m, e) == pytest.approx(0.5 - e)


@pytest.mark.parametrize("q", range(1, 13))
def test_determinant_identity(q):
    """det(A_q(kappa) - E) = Delta_q(E) + 2 (-1)^(q-1) cos(q kappa)."""
    rng = np.random.default_rng(100 + q)
    for _ in range(8):
        m = random_model(q, rng=rng)
        kappa = rng.uniform(0, math.pi / q)
        e = rng.uniform(-4, 4)
        det = np.linalg.det(floquet_matrix(m, kappa) - e * np.eye(q))
        rhs = discriminant(m, e) + 2.0 * (-1) ** (q - 1) * math.cos(q * kappa)
        assert abs(det.imag) < 1e-8 * max(1.0, abs(det.real))
        assert det.real == pytest.approx(rhs, abs=1e-8 * max(1.0, abs(rhs)))


def test_discriminant_derivative_matches_polynomial():
    # q=2, V=(a,b): Delta'(E) = 2E - (a+b)
    a, b = 1.1, -0.3
    m = PeriodicModel.from_potential([a, b])
    for e in (-1.5, 0.0, 2.2):
        assert discriminant_derivative(m, e) == pytest.approx(2 * e - (a + b),
                                                             rel=1e-6)


# ── eigensystem weights ─────────────────────────────────────────────────────

@pytest.mark.parametrize("q", [2, 3, 5, 8])
def test_phi_sums_to_two(q):
    rng = np.random.default_rng(7 * q)
    for _ in range(5):
        m = random_model(q, rng=rng)
        kappa = rng.uniform(0, math.pi / q)
        phi = fiber_eigensystems(m, [kappa])[1][0]
        assert abs(phi.sum() - 2.0) < 1e-10
        assert np.all(phi >= 0)


def test_phi_is_two_for_q_one():
    # site 1 is site 0 of the next cell, so both sites carry the one weight
    _, phi = fiber_eigensystems(PeriodicModel.from_potential([0.3]), [0.2])
    assert phi.tolist() == [[2.0]]


def test_conjugation_symmetry():
    m = random_model(5)
    for kappa in (0.05, 0.3, 0.55):
        (lam_plus, lam_minus), (phi_plus, phi_minus) = fiber_eigensystems(
            m, [kappa, -kappa])
        np.testing.assert_allclose(lam_plus, lam_minus, atol=1e-12)
        np.testing.assert_allclose(phi_plus, phi_minus, atol=1e-12)


def test_phi_free_q2_equal_weights():
    (lams,), (phi,) = fiber_eigensystems(free_model(2), [math.pi / 4])
    np.testing.assert_allclose(lams, [-math.sqrt(2), math.sqrt(2)],
                               atol=1e-12)
    np.testing.assert_allclose(phi, [1.0, 1.0], atol=1e-12)


# ── bands ───────────────────────────────────────────────────────────────────

def test_free_bands_q2():
    bs = band_structure(free_model(2))
    np.testing.assert_allclose([b.lo for b in bs.bands], [-2.0, 0.0], atol=1e-12)
    np.testing.assert_allclose([b.hi for b in bs.bands], [0.0, 2.0], atol=1e-12)
    np.testing.assert_allclose(bs.widths, [2.0, 2.0], atol=1e-12)


def test_free_bands_q3():
    bs = band_structure(free_model(3))
    np.testing.assert_allclose([b.lo for b in bs.bands], [-2, -1, 1], atol=1e-10)
    np.testing.assert_allclose([b.hi for b in bs.bands], [-1, 1, 2], atol=1e-10)
    np.testing.assert_allclose(bs.widths, [1.0, 2.0, 1.0], atol=1e-10)


def assert_band_audits(model):
    """On a 96-point kappa grid each band is monotone with the parity sign
    and starts and ends at band_structure's edges, bit for bit; band
    interiors are disjoint."""
    q = model.q
    bs = band_structure(model)
    grid, _ = fiber_eigensystems(model, np.linspace(0.0, math.pi / q, 96))
    tol = 1e-10 * max(1.0, model.norm_bound)
    for j, band in enumerate(bs.bands, start=1):
        steps = expected_derivative_sign(q, j) * np.diff(grid[:, j - 1])
        assert np.all(steps >= -tol)
        assert band.edge_zero == grid[0, j - 1]
        assert band.edge_pi == grid[-1, j - 1]
    assert all(lower.hi <= upper.lo + tol
               for lower, upper in zip(bs.bands, bs.bands[1:]))


@pytest.mark.parametrize("q", [2, 3, 5, 8])
def test_band_audits_pass_random_potential(q):
    assert_band_audits(random_model(q, rng=np.random.default_rng(3 * q)))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 13), st.integers(0, 2**32 - 1), st.floats(0.1, 3.0))
def test_band_audits_hold_on_random_potentials(q, seed, scale):
    assert_band_audits(random_model(q, scale=scale,
                                    rng=np.random.default_rng(seed)))


def test_band_structure_solves_two_fibers(monkeypatch):
    solved = []
    fibers = floquet.fiber_eigensystems
    monkeypatch.setattr(floquet, "fiber_eigensystems", lambda m, kappas:
                        solved.append(len(kappas)) or fibers(m, kappas))
    bs = band_structure(random_model(7, rng=np.random.default_rng(7)))
    assert solved == [2] and len(bs.bands) == 7


def test_band_lookup_1_indexed():
    bs = band_structure(free_model(3))
    assert bs.band(1).lo == pytest.approx(-2.0, abs=1e-10)
    with pytest.raises(InputError):
        bs.band(0)
    with pytest.raises(InputError):
        bs.band(4)


# ── derivatives ─────────────────────────────────────────────────────────────

def test_eigenvalue_derivative_free_q2():
    m = free_model(2)
    kappa = math.pi / 8
    # lambda_2 = 2 cos(kappa), lambda_1 = -2 cos(kappa)
    assert eigenvalue_derivative(m, kappa, 2) == pytest.approx(
        -2 * math.sin(kappa), rel=1e-6)
    assert eigenvalue_derivative(m, kappa, 1) == pytest.approx(
        2 * math.sin(kappa), rel=1e-6)


@pytest.mark.parametrize("q", [2, 3, 5, 7])
def test_eigenvalue_derivative_matches_finite_difference(q):
    rng = np.random.default_rng(17 * q)
    m = random_model(q, rng=rng)
    h = 1e-6 / q
    for j in range(1, q + 1):
        kappa = rng.uniform(0.15, 0.85) * math.pi / q
        lam = lambda k: floquet_eigensystem(m, k)[0][j - 1]
        fd = (lam(kappa + h) - lam(kappa - h)) / (2 * h)
        ident = eigenvalue_derivative(m, kappa, j)
        assert ident == pytest.approx(fd, rel=1e-4, abs=1e-8)


def test_derivative_identity_product():
    """|Delta'(lambda_j)| |lambda_j'| = 2 q |sin(q kappa)| against a finite
    difference of lambda (independent of the identity-based implementation)."""
    q = 5
    m = random_model(q, rng=np.random.default_rng(99))
    h = 1e-6 / q
    for j in (1, 3, 5):
        kappa = 0.4 * math.pi / q
        lam = lambda k: floquet_eigensystem(m, k)[0][j - 1]
        fd = (lam(kappa + h) - lam(kappa - h)) / (2 * h)
        lamv = lam(kappa)
        lhs = abs(discriminant_derivative(m, lamv)) * abs(fd)
        assert lhs == pytest.approx(2 * q * abs(math.sin(q * kappa)), rel=1e-4)


def test_degenerate_point_raises():
    # free q=2 bands touch at E=0 (kappa = pi/2): Delta'(0) = 0
    with pytest.raises(DegeneratePointError):
        eigenvalue_derivative(free_model(2), math.pi / 2, 1)


def test_derivative_sign_parity():
    assert expected_derivative_sign(2, 2) == -1
    assert expected_derivative_sign(2, 1) == 1
    assert expected_derivative_sign(3, 3) == -1
    assert expected_derivative_sign(3, 2) == 1


def test_sandwich_brackets_true_derivative():
    q = 4
    m = random_model(q, rng=np.random.default_rng(5))
    bs = band_structure(m)
    lo_k, hi_k = interior_window(q)
    for j in range(1, q + 1):
        width = bs.bands[j - 1].width
        for kappa in np.linspace(lo_k, hi_k, 9):
            lower, upper = derivative_sandwich(m, kappa, width=width)
            deriv = abs(eigenvalue_derivative(m, kappa, j))
            assert lower <= deriv * (1 + 1e-9)
            assert deriv <= upper * (1 + 1e-9)


def test_phi_derivative_matches_finite_difference():
    q = 5
    m = random_model(q, rng=np.random.default_rng(23))
    h = 1e-6
    for j in (1, 2, 4):
        kappa = 0.37 * math.pi / q
        phi = lambda k: fiber_eigensystems(m, [k])[1][0, j - 1]
        fd = (phi(kappa + h) - phi(kappa - h)) / (2 * h)
        pert = phi_derivative(m, kappa, j)
        assert pert == pytest.approx(fd, rel=1e-3, abs=1e-8)


def test_phi_derivative_bound_on_window():
    q = 3
    m = random_model(q, rng=np.random.default_rng(31))
    bs = band_structure(m)
    lo_k, hi_k = interior_window(q)
    for j in range(1, q + 1):
        bound = phi_derivative_edge_bound(q, bs.bands[j - 1].width)
        for kappa in np.linspace(lo_k, hi_k, 7):
            assert abs(phi_derivative(m, kappa, j)) <= bound


def test_phi_derivative_requires_q2():
    with pytest.raises(InputError):
        phi_derivative(PeriodicModel.from_potential([1.0]), 0.1, 1)


# ── spectral measure ────────────────────────────────────────────────────────

def test_measure_free_q2():
    m = free_model(2)
    kappa = math.pi / 4
    assert spectral_measure_interval(m, kappa, (-3, 3)) == pytest.approx(2.0)
    assert spectral_measure_interval(m, kappa, (0, 2)) == pytest.approx(1.0)
    assert spectral_measure_interval(m, kappa, (1.5, 3)) == pytest.approx(0.0)


def test_measure_counts_boundary_atoms():
    # at kappa = pi/2 the free q=2 fiber degenerates: double eigenvalue 0,
    # and a closed interval containing 0 collects both atoms
    m = free_model(2)
    assert spectral_measure_interval(m, math.pi / 2, (-1e-12, 1e-12)) == \
        pytest.approx(2.0)


def always_solve_measure(model, kappa, interval):
    """spectral_measure_interval without the band-edge skip."""
    a, b = interval
    lams, phi = fiber_eigensystems(model, kappa)
    masses = [float(np.sum(p[(w >= a) & (w <= b)])) for w, p in zip(lams, phi)]
    return masses if np.ndim(kappa) else masses[0]


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 13), st.integers(0, 2**32 - 1),
       st.sampled_from(["gap", "outside", "straddle", "edge", "any"]),
       st.floats(0.0, 1.0), st.floats(1e-12, 1.0),
       st.lists(st.floats(-20.0, 20.0), max_size=12),
       st.lists(st.integers(-6, 6), max_size=4), st.booleans())
def test_measure_skip_matches_always_solve(q, seed, kind, where, half, kappas,
                                           edge_multiples, scalar):
    # kappa anywhere on the line, and on edge kappas m pi / q, where the
    # eigenvalues reach the band edges
    kappas = kappas + [m * math.pi / q for m in edge_multiples]
    assume(kappas)
    rng = np.random.default_rng(seed)
    model = random_model(q, scale=rng.uniform(0.1, 3.0), rng=rng)
    bands = band_structure(model).bands
    # computed band edges: the kappa = 0 and pi/q fiber eigenvalues
    edges = np.sort(np.concatenate([
        fiber_eigensystems(model, [0.0, math.pi / q])[0].ravel(),
        [b.lo for b in bands], [b.hi for b in bands]]))
    j = min(int(where * (q - 1)), q - 2)
    if kind == "gap":  # strictly inside the gap above band j + 1
        lo, hi = bands[j].hi, bands[j + 1].lo
        mid = lo + (0.25 + 0.5 * where) * (hi - lo)
        interval = (mid - half * 0.2 * (hi - lo), mid + half * 0.2 * (hi - lo))
    elif kind == "outside":  # beyond the spectrum on one side
        end = bands[-1].hi if where > 0.5 else bands[0].lo
        off = (1e-6 + half) * (1 if where > 0.5 else -1)
        interval = tuple(sorted((end + off, end + 3.0 * off)))
    elif kind == "straddle":
        e = edges[int(where * (edges.size - 1))]
        interval = (e - half, e + half)
    elif kind == "edge":  # one endpoint exactly on a computed edge
        e = edges[int(where * (edges.size - 1))]
        interval = (e, e + half) if scalar else (e - half, e)
    else:
        interval = (-3.0 + 6.0 * where - half, -3.0 + 6.0 * where + half)
    kappa = kappas[0] if scalar else np.array(kappas)
    assert spectral_measure_interval(model, kappa, interval) == \
        always_solve_measure(model, kappa, interval)


@pytest.mark.parametrize("q", [2, 5, 13])
def test_gap_interval_solves_no_fiber(monkeypatch, q):
    model = random_model(q, rng=np.random.default_rng(q))
    bands = band_structure(model).bands
    lo, hi = bands[0].hi, bands[1].lo
    assert hi - lo > 1e-3
    gap = (lo + 0.25 * (hi - lo), hi - 0.25 * (hi - lo))
    above = (bands[-1].hi + 0.5, bands[-1].hi + 1.0)
    kappas = np.linspace(-1.0, 4.0, 33)
    want = [always_solve_measure(model, kappas, i) for i in (gap, above)]

    # the band edges are the only fibers solved: kappa = 0 and pi/q
    fibers = floquet.fiber_eigensystems

    def spy(m, kappas):
        assert list(kappas) == [0.0, math.pi / q], "a fiber grid was solved"
        return fibers(m, kappas)
    monkeypatch.setattr(floquet, "fiber_eigensystems", spy)
    for interval, masses in zip((gap, above), want):
        assert masses == [0.0] * kappas.size
        assert spectral_measure_interval(model, kappas, interval) == masses
        assert spectral_measure_interval(model, 0.3, interval) == 0.0
        assert measure_kappa_infimum(model, interval) == (0.0, 0.0)


@pytest.mark.parametrize("interval", [(math.nan, 1.0), (-1.0, math.nan),
                                      (1.0, 0.0)])
def test_interval_that_fails_a_le_b_is_rejected(interval):
    with pytest.raises(InputError, match="empty interval"):
        spectral_measure_interval(free_model(2), 0.3, interval)


def test_infinite_endpoints_hold_the_whole_spectrum():
    assert spectral_measure_interval(free_model(2), 0.3,
                                     (-math.inf, math.inf)) == \
        pytest.approx(2.0, abs=1e-12)


def test_measure_kappa_infimum_full_line():
    eta, _ = measure_kappa_infimum(free_model(2), (-4, 4), kappa_grid=32)
    assert eta == pytest.approx(2.0)


def test_measure_uniform_lower_bound_amo():
    res = measure_uniform_lower_bound(AmoSampling(1.0), __import__("fractions").Fraction(1, 2),
                                      (-5, 5), theta_grid=8, kappa_grid=16)
    assert res.eta == pytest.approx(2.0)
    assert res.theta_count == 8


def test_measure_uniform_lower_bound_counts_bandless_phases(monkeypatch):
    # AMO at 3/5: the bands move with the phase, so an interval can meet a
    # band at some phases and none at others
    f, alpha, grid = AmoSampling(1.5), Fraction(3, 5), 16
    bands = [band_structure(periodic_model(f, alpha, t / grid)).bands
             for t in range(grid)]
    edge_solves = []
    band_meets = floquet._band_meets
    monkeypatch.setattr(floquet, "_band_meets",
                        lambda *a: edge_solves.append(1) or band_meets(*a))
    counts = []
    for interval in [(-6.0, 6.0), *((lo, lo + 0.05)
                                    for lo in np.linspace(-3.5, 3.5, 29))]:
        want = sum(not any(b.lo < interval[1] and interval[0] < b.hi
                           for b in phase) for phase in bands)
        res = measure_uniform_lower_bound(f, alpha, interval, theta_grid=grid,
                                          kappa_grid=16)
        assert res.bandless_phases == want
        assert res.eta == 0.0 or want == 0
        # the count is the measure's own skip: one band-edge solve a phase
        assert len(edge_solves) == grid
        edge_solves.clear()
        counts.append(want)
    assert 0 in counts and grid in counts
    assert any(0 < c < grid for c in counts)


def test_grids_beyond_physical_memory_raise_before_allocating(monkeypatch):
    def spy(*args, **kwargs):
        raise AssertionError("a grid was built")
    monkeypatch.setattr(np, "linspace", spy)
    model = random_model(13, rng=np.random.default_rng(13))
    with pytest.raises(MemoryLimitError, match="measure infimum"):
        measure_kappa_infimum(model, (-1.0, 1.0), kappa_grid=10 ** 12)


def test_phi_occupation_measure_free(monkeypatch):
    # free q=2: phi_j = 1 everywhere, so the > 0.5 set is everything
    monkeypatch.setattr(floquet, "OCCUPATION_KAPPA_GRID", 64)
    m = free_model(2)
    meas = phi_occupation_measure(m, 1, 0.5)
    assert meas == pytest.approx(math.pi / 2, rel=0.05)


def test_band_dataclass_properties():
    b = Band(j=1, edge_zero=2.0, edge_pi=-1.0)
    assert b.lo == -1.0 and b.hi == 2.0
    assert b.width == 3.0
    assert b.center == 0.5
    assert b.intersects(1.9, 5.0)
    assert not b.intersects(2.5, 5.0)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 13), st.integers(0, 2**32 - 1), st.integers(1, 40))
def test_fiber_eigensystems_match_per_kappa_solves(q, seed, count):
    # the stacked solve against one floquet_eigensystem per kappa, bit for bit
    model = random_model(q, rng=np.random.default_rng(seed))
    kappas = np.random.default_rng(seed + 1).uniform(0.0, math.pi / q, count)
    lams, phi = fiber_eigensystems(model, kappas)
    singles = [floquet_eigensystem(model, k) for k in kappas]
    assert np.array_equal(lams, [w for w, _ in singles])
    if q >= 2:
        assert np.array_equal(phi, [np.abs(u[0]) ** 2 + np.abs(u[1]) ** 2
                                    for _, u in singles])
    else:
        assert np.array_equal(phi, np.full((count, 1), 2.0))


def test_fiber_eigensystems_blocks_large_periods():
    # q = 300 puts one kappa in each eigh block
    model = random_model(300, rng=np.random.default_rng(3))
    kappas = [0.0, 0.004, 0.01]
    lams, phi = fiber_eigensystems(model, kappas)
    for k, lam, weights in zip(kappas, lams, phi):
        w, u = floquet_eigensystem(model, k)
        assert np.array_equal(lam, w)
        assert np.array_equal(weights, np.abs(u[0]) ** 2 + np.abs(u[1]) ** 2)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 40), st.integers(0, 2**32 - 1),
       st.lists(st.floats(-6.0, 6.0), min_size=1, max_size=12))
def test_discriminant_vectorized_matches_scalar_calls(q, seed, energies):
    model = random_model(q, rng=np.random.default_rng(seed))
    batch = discriminant(model, np.array(energies))
    assert batch.shape == (len(energies),)
    assert batch.tolist() == [discriminant(model, e) for e in energies]
    grid = discriminant(model, np.array(energies)[:, None] * [1.0, 0.5])
    assert grid.shape == (len(energies), 2)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 40), st.integers(0, 2**32 - 1),
       st.lists(st.floats(-6.0, 6.0) | st.floats(-1e6, 1e6), min_size=1,
                max_size=12))
def test_discriminant_derivative_array_matches_scalar_calls(q, seed,
                                                            energies):
    # bit for bit, also where large energies renormalize the cocycle
    model = random_model(q, rng=np.random.default_rng(seed))
    batch = discriminant_derivative(model, np.array(energies))
    assert batch.shape == (len(energies),)
    assert batch.tolist() == [discriminant_derivative(model, e)
                              for e in energies]
    assert type(discriminant_derivative(model, energies[0])) is float
    grid = discriminant_derivative(model,
                                   np.array(energies)[:, None] * [1.0, 0.5])
    assert grid.shape == (len(energies), 2)
    assert grid[:, 0].tolist() == batch.tolist()
