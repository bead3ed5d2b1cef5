"""Floquet fiber matrices, the determinant/discriminant identity, bands,
derivatives, and the two-site spectral measure.

Determinant-identity expectations use numpy's det as the independent oracle;
free-Laplacian eigenvalues use the closed form 2 cos(kappa + 2 pi k / q).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qptransport.errors import DegeneratePointError, InputError
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
from qptransport.operator import AmoSampling, PeriodicModel, ZeroSampling

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


@pytest.mark.parametrize("q", [2, 3, 5, 8])
def test_matrix_hermitian(q):
    m = random_model(q)
    a = floquet_matrix(m, 0.77 / q)
    np.testing.assert_allclose(a, a.conj().T, atol=1e-14)


def test_free_eigenvalues_closed_form():
    q, kappa = 3, 0.1
    w = floquet_eigensystem(free_model(q), kappa).eigenvalues
    expect = np.sort([2 * math.cos(kappa + 2 * math.pi * k / q) for k in range(q)])
    np.testing.assert_allclose(w, expect, atol=1e-12)


@given(q=st.integers(2, 9), kappa=st.floats(0, 1))
@settings(max_examples=60, deadline=None)
def test_free_eigenvalues_closed_form_property(q, kappa):
    kappa = kappa * math.pi / q
    w = floquet_eigensystem(free_model(q), kappa).eigenvalues
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
        phi = floquet_eigensystem(m, kappa).phi
        assert abs(phi.sum() - 2.0) < 1e-10
        assert np.all(phi >= 0)


def test_phi_needs_q_at_least_two():
    sys = floquet_eigensystem(PeriodicModel.from_potential([0.3]), 0.2)
    with pytest.raises(InputError):
        _ = sys.phi


def test_conjugation_symmetry():
    m = random_model(5)
    for kappa in (0.05, 0.3, 0.55):
        plus = floquet_eigensystem(m, kappa)
        minus = floquet_eigensystem(m, -kappa)
        np.testing.assert_allclose(plus.eigenvalues, minus.eigenvalues, atol=1e-12)
        np.testing.assert_allclose(plus.phi, minus.phi, atol=1e-12)


def test_phi_free_q2_equal_weights():
    sys = floquet_eigensystem(free_model(2), math.pi / 4)
    np.testing.assert_allclose(np.sort(sys.eigenvalues),
                               [-math.sqrt(2), math.sqrt(2)], atol=1e-12)
    np.testing.assert_allclose(sys.phi, [1.0, 1.0], atol=1e-12)


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
    assert bs.disjoint_ok


@pytest.mark.parametrize("q", [2, 3, 5, 8])
def test_band_audits_pass_random_potential(q):
    bs = band_structure(random_model(q, rng=np.random.default_rng(3 * q)),
                        kappa_grid=96)
    assert bs.monotone_ok
    assert bs.parity_ok
    assert bs.disjoint_ok


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
        lam = lambda k: floquet_eigensystem(m, k).eigenvalues[j - 1]
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
        lam = lambda k: floquet_eigensystem(m, k).eigenvalues[j - 1]
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
            lower, upper = derivative_sandwich(m, kappa, j, width=width)
            deriv = abs(eigenvalue_derivative(m, kappa, j))
            assert lower <= deriv * (1 + 1e-9)
            assert deriv <= upper * (1 + 1e-9)


def test_phi_derivative_matches_finite_difference():
    q = 5
    m = random_model(q, rng=np.random.default_rng(23))
    h = 1e-6
    for j in (1, 2, 4):
        kappa = 0.37 * math.pi / q
        phi = lambda k: floquet_eigensystem(m, k).phi[j - 1]
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


def test_measure_kappa_infimum_full_line():
    eta, _ = measure_kappa_infimum(free_model(2), (-4, 4), kappa_grid=32)
    assert eta == pytest.approx(2.0)


def test_measure_uniform_lower_bound_amo():
    res = measure_uniform_lower_bound(AmoSampling(1.0), __import__("fractions").Fraction(1, 2),
                                      (-5, 5), theta_grid=8, kappa_grid=16)
    assert res.eta == pytest.approx(2.0)
    assert res.theta_count == 8


def test_phi_occupation_measure_free():
    # free q=2: phi_j = 1 everywhere, so the > 0.5 set is everything
    m = free_model(2)
    meas = phi_occupation_measure(m, 1, 0.5, kappa_grid=64)
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
    assert np.array_equal(lams, [s.eigenvalues for s in singles])
    if q >= 2:
        assert np.array_equal(phi, [s.phi for s in singles])
    else:
        assert np.array_equal(phi, np.full((count, 1), 2.0))


def test_fiber_eigensystems_blocks_large_periods():
    # q = 300 puts one kappa in each eigh block
    model = random_model(300, rng=np.random.default_rng(3))
    kappas = [0.0, 0.004, 0.01]
    lams, phi = fiber_eigensystems(model, kappas)
    for k, lam, weights in zip(kappas, lams, phi):
        one = floquet_eigensystem(model, k)
        assert np.array_equal(lam, one.eigenvalues)
        assert np.array_equal(weights, one.phi)


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
