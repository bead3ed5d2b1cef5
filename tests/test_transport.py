"""Tests for the Abel-averaged transport routes and moment sums."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
import scipy.special
from hypothesis import given, settings, strategies as st

from qptransport.arithmetic import (construct_liouville_frequency,
                                    continued_fraction_expansion)
from qptransport.errors import InputError, TruncationError
from qptransport.operator import (AmoSampling, Chain, FiniteOperator,
                                  PeriodicModel, ZeroSampling,
                                  finite_operator, periodic_model)
from qptransport import transport as tr

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
FREE_CHAIN = Chain(ZeroSampling(), GOLDEN, 0.0)


def free_lattice_amplitude(displacement, times):
    """<delta_n, e^(-itH) delta_0> for the zero-potential chain:
    (-i)^|n| J_|n|(2t)."""
    n = abs(int(displacement))
    return (-1j) ** n * scipy.special.jv(n, 2.0 * np.asarray(times, float))


def bessel_abel_oracle(displacement, time_scale):
    """Independent free-lattice value of P(n; T): both entries carry the
    amplitude (-i)^|n| J_|n|(2t), integrated with the Abel weight."""
    n = abs(displacement)

    def igr(t):
        return math.exp(-2.0 * t / time_scale) * \
            scipy.special.jv(n, 2.0 * t) ** 2

    upper = 0.5 * time_scale * math.log(4e12)
    val, _ = scipy.integrate.quad(igr, 0.0, upper, limit=400)
    return 2.0 * (2.0 / time_scale) * val


def free_legendre_oracle(displacement, time_scale):
    """Closed form of P(n; T) on the free lattice:
    (2/(pi T)) Q_(|n|-1/2)(1 + 1/(2 T^2))."""
    with mpmath.workdps(30):
        t = mpmath.mpf(time_scale)
        q = mpmath.legenq(abs(displacement) - mpmath.mpf(1) / 2, 0,
                          1 + 1 / (2 * t * t), type=3)
        return float(mpmath.re(2 / (mpmath.pi * t) * q))


def dense_lorentz_form(lams, coeffs, time_scale):
    """Oracle for tr._lorentz_form: every one of the N^2 kernel entries,
    built in row chunks, summed against each real coefficient column."""
    a2 = (2.0 / time_scale) ** 2
    c = np.asarray(coeffs, dtype=float).reshape(lams.size, -1)
    total = 0.0
    n = lams.size
    chunk = max(1, int(4e6) // max(1, n))
    for lo in range(0, n, chunk):
        d = lams[lo:lo + chunk, None] - lams[None, :]
        kern = a2 / (d * d + a2)
        total += float(np.sum(c[lo:lo + chunk] * (kern @ c)))
    return total


@st.composite
def lorentz_inputs(draw):
    """Eigenvalue sets the Floquet and time routes produce, and harder:
    clustered narrow bands, exact pairs lambda(kappa) = lambda(-kappa), all
    values equal (blocks of zero width), sizes around one block."""
    kind = draw(st.sampled_from(["bands", "ties", "equal", "spread"]))
    n = draw(st.one_of(st.integers(1, 40), st.integers(1, 3000)))
    time_scale = 10.0 ** draw(st.floats(0.0, 7.0))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "bands":
        count = int(rng.integers(1, 14))
        centers = rng.uniform(-3.0, 3.0, count)
        widths = 10.0 ** rng.uniform(-8.0, -1.0, count)
        band = rng.integers(0, count, n)
        lams = centers[band] + widths[band] * np.cos(rng.uniform(0, np.pi, n))
    elif kind == "ties":
        half = rng.uniform(-2.0, 2.0, n // 2 + 1)
        lams = rng.permutation(np.concatenate([half, half])[:n])
    elif kind == "equal":
        lams = np.full(n, rng.uniform(-3.0, 3.0))
    else:
        lams = rng.uniform(-3.0, 3.0, n)
    coeffs = rng.standard_normal((n, draw(st.integers(1, 4)))) / n
    return lams, coeffs, time_scale


@given(lorentz_inputs())
@settings(max_examples=80, deadline=None)
def test_fast_lorentz_form_matches_dense_sum(inputs):
    lams, coeffs, time_scale = inputs
    fast = tr._lorentz_form(lams, coeffs, time_scale)
    dense = dense_lorentz_form(lams, coeffs, time_scale)
    scale = dense_lorentz_form(lams, np.abs(coeffs), time_scale)
    assert abs(fast - dense) <= 1e-12 * scale


def test_fast_lorentz_form_keeps_precision_far_from_zero():
    # one band 3e-6 wide at 2.5 and T = 1e7: node positions rounded to
    # ulp(2.5) = 4e-16 would move kernel arguments by 2e-9 of a = 2e-7
    rng = np.random.default_rng(1)
    lams = 2.5 + 3e-6 * np.cos(rng.uniform(0.0, np.pi, 2000))
    coeffs = rng.standard_normal((2000, 1)) / 2000
    fast = tr._lorentz_form(lams, coeffs, 1e7)
    dense = dense_lorentz_form(lams, coeffs, 1e7)
    scale = dense_lorentz_form(lams, np.abs(coeffs), 1e7)
    assert abs(fast - dense) <= 1e-14 * scale


class TestRadii:
    def test_horizon_formula(self):
        assert tr.abel_horizon(10.0, 1e-6) == pytest.approx(
            5.0 * math.log(4e6))

    def test_radius_grows_with_time(self):
        assert tr.truncation_radius(20.0) > tr.truncation_radius(5.0)

    def test_radius_includes_extent(self):
        assert tr.truncation_radius(5.0, n_extent=100) == \
            tr.truncation_radius(5.0, n_extent=0) + 100

    def test_bad_inputs(self):
        with pytest.raises(InputError):
            tr.abel_horizon(0.0)
        with pytest.raises(InputError):
            tr.abel_horizon(5.0, tail_tolerance=2.0)


TWO_PERIODIC = periodic_model(AmoSampling(1.0), Fraction(1, 2), 0.0)


@pytest.mark.parametrize("call", [
    lambda t: tr.abel_probability_time(FREE_CHAIN, 0, t),
    lambda t: tr.moments(FREE_CHAIN, t),
    lambda t: tr.abel_resolvent_profile(TWO_PERIODIC, [0], t),
    lambda t: tr.abel_probability_floquet(TWO_PERIODIC, 0, t),
], ids=["time", "moments", "resolvent", "floquet"])
@pytest.mark.parametrize("time_scale", [0.0, math.inf, math.nan])
def test_time_scale_must_be_finite_and_positive(call, time_scale):
    with pytest.raises(InputError, match="time scale"):
        call(time_scale)


@pytest.mark.parametrize("order", [math.nan, math.inf])
def test_moment_orders_must_be_finite(order):
    with pytest.raises(InputError, match="moment orders"):
        tr.moments(FREE_CHAIN, 3.0, orders=(1.0, order))


@st.composite
def evolve_inputs(draw):
    """A truncated operator (N = 0-20, random diagonal), times with 0
    among them, a source, and target sites in any order with repeats (or
    None for every site)."""
    n = draw(st.integers(0, 20))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    op = FiniteOperator(rng.uniform(-3.0, 3.0, 2 * n + 1), n)
    times = [0.0] + draw(st.lists(st.floats(0.0, 25.0), max_size=4))
    source = draw(st.integers(-n, n))
    sites = draw(st.none() | st.lists(st.integers(-n, n), max_size=12))
    return op, draw(st.permutations(times)), source, sites


@given(evolve_inputs())
@settings(max_examples=60, deadline=None)
def test_evolve_matches_matrix_exponential(inputs):
    op, times, source, sites = inputs
    rows = range(op.dimension) if sites is None else \
        [op.site_index(n) for n in sites]
    want = np.array([scipy.linalg.expm(-1j * t * op.dense())
                     [rows, op.site_index(source)] for t in times])
    got = tr.evolve(op, times, source, sites)
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)


@pytest.mark.parametrize("n", [0, 1, 5, 40])
def test_resolvent_matches_dense_solve(n):
    rng = np.random.default_rng(n)
    op = FiniteOperator(rng.uniform(-2.5, 2.5, 2 * n + 1), n)
    sources = (0, -n, n, 0)
    eye = np.eye(op.dimension)
    for z in (0.3 + 1.5j, -1.0 + 0.01j, 2.0 - 0.2j, 5.5):
        want = np.linalg.solve(op.dense() - z * eye,
                               eye[:, [op.site_index(s) for s in sources]])
        np.testing.assert_allclose(op.resolvent(z, sources), want,
                                   rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", [0, 3, 7, 8, 30])
def test_boundary_mass_is_the_edge_sum_of_the_wavefunction(n):
    # below 16 sites the two edges overlap and shared sites count twice
    op = finite_operator(Chain(AmoSampling(0.8), GOLDEN, 0.4), n)
    for time in (0.0, 1.5, 12.0):
        for source in {0, min(1, n)}:
            prob = np.abs(tr.evolve(op, [time], source)[0]) ** 2
            width = min(8, op.dimension)
            want = np.sum(prob[:width]) + np.sum(prob[-width:])
            assert tr.boundary_mass(op, time, source) == \
                pytest.approx(want, rel=1e-14, abs=1e-15)


class TestEvolution:
    def test_free_amplitude_against_bessel(self):
        t = np.array([0.0, 0.7, 2.5])
        np.testing.assert_allclose(free_lattice_amplitude(0, t),
                                   scipy.special.jv(0, 2 * t), atol=1e-14)
        np.testing.assert_allclose(
            free_lattice_amplitude(2, t),
            -scipy.special.jv(2, 2 * t), atol=1e-14)

    def test_evolve_is_unitary(self):
        op = finite_operator(Chain(AmoSampling(1.0), GOLDEN, 0.2), 30)
        psi = tr.evolve(op, [0.0, 1.0, 3.7])
        np.testing.assert_allclose(np.linalg.norm(psi, axis=1), 1.0,
                                   atol=1e-11)

    def test_evolve_matches_free_amplitudes(self):
        op = finite_operator(FREE_CHAIN, 40)
        psi = tr.evolve(op, [3.0])[0]
        for n in (-2, 0, 1, 5):
            assert psi[op.site_index(n)] == pytest.approx(
                complex(free_lattice_amplitude(n, 3.0)), abs=1e-10)

    def test_boundary_mass_detects_escape(self):
        small = finite_operator(FREE_CHAIN, 12)
        big = finite_operator(FREE_CHAIN, 80)
        assert tr.boundary_mass(small, 10.0) > 0.01
        assert tr.boundary_mass(big, 10.0) < 1e-12


class TestTimeRoute:
    def test_short_time_limit_is_two(self):
        p = tr.abel_probability_time(FREE_CHAIN, 0, 0.01)
        assert p == pytest.approx(2.0, abs=5e-4)

    def test_free_lattice_bessel_oracle(self):
        mine = tr.abel_probability_time(FREE_CHAIN, 3, 4.0)
        assert mine == pytest.approx(bessel_abel_oracle(3, 4.0), rel=1e-6)

    def test_reflection_symmetric_potential(self):
        assert tr.abel_probability_time(FREE_CHAIN, -3, 4.0) == \
            pytest.approx(tr.abel_probability_time(FREE_CHAIN, 3, 4.0),
                          rel=1e-10)

    def test_undersized_radius_raises(self):
        with pytest.raises(TruncationError):
            tr.abel_probability_time(FREE_CHAIN, 0, 20.0, radius=10)

    def test_distribution_mass_two(self):
        d = tr.probability_distribution(FREE_CHAIN, 3.0)
        assert d.total_mass == pytest.approx(2.0, rel=1e-6)

    def test_distribution_accessor(self):
        d = tr.probability_distribution(FREE_CHAIN, 3.0)
        k = tr.abel_probability_time(FREE_CHAIN, 2, 3.0)
        assert d.probability(2) == pytest.approx(k, rel=1e-10)
        with pytest.raises(InputError):
            d.probability(10 ** 6)

    def test_free_second_moment_closed_form(self):
        # sum_n n^2 J_n(2t)^2 = 2 t^2, so the two-entry Abel average is
        # exactly 2 T^2
        m = tr.moments(FREE_CHAIN, 6.0, orders=(0, 2))
        assert m.moment(0) == pytest.approx(2.0, rel=1e-6)
        assert m.moment(2) == pytest.approx(2.0 * 36.0, rel=1e-5)

    def test_moment_order_validation(self):
        with pytest.raises(InputError):
            tr.moments(FREE_CHAIN, 3.0, orders=(-1,))


class TestResolventRoute:
    def test_free_lattice_bessel_oracle(self):
        mine = tr.abel_probability_resolvent(FREE_CHAIN, 3, 4.0)
        assert mine == pytest.approx(bessel_abel_oracle(3, 4.0), rel=5e-4)

    def test_matches_time_route_periodic(self):
        model = periodic_model(AmoSampling(1.0), Fraction(1, 2), 0.0)
        a = tr.abel_probability_time(model, 2, 5.0)
        b = tr.abel_probability_resolvent(model, 2, 5.0)
        assert b == pytest.approx(a, rel=1e-6)

    def test_matches_time_route_quasiperiodic(self):
        chain = Chain(AmoSampling(1.0), GOLDEN, 0.3)
        a = tr.abel_probability_time(chain, 1, 5.0)
        b = tr.abel_probability_resolvent(chain, 1, 5.0)
        assert b == pytest.approx(a, rel=1e-4)

    def test_profile_matches_singles(self):
        chain = Chain(AmoSampling(1.0), GOLDEN, 0.3)
        disp = [0, 1, 4]
        prof = tr.abel_resolvent_profile(chain, disp, 5.0)
        assert prof.shape == (3,)
        for i, d in enumerate(disp):
            single = tr.abel_probability_resolvent(chain, d, 5.0)
            assert prof[i] == pytest.approx(single, rel=1e-7)

    def test_profile_rejects_empty(self):
        with pytest.raises(InputError):
            tr.abel_resolvent_profile(FREE_CHAIN, [], 5.0)


class TestFloquetRoute:
    MODEL = periodic_model(AmoSampling(1.0), Fraction(1, 2), 0.0)

    def test_energy_route_matches_time_route(self):
        a = tr.abel_probability_time(self.MODEL, 2, 5.0)
        b = tr.abel_probability_floquet(self.MODEL, 2, 5.0, route="energy")
        assert b == pytest.approx(a, rel=1e-6)

    def test_kernel_route_matches_time_route(self):
        a = tr.abel_probability_time(self.MODEL, 2, 5.0)
        b = tr.abel_probability_floquet(self.MODEL, 2, 5.0, route="kernel")
        assert b == pytest.approx(a, rel=1e-9)

    def test_routes_agree_at_moderate_time(self):
        model = periodic_model(AmoSampling(2.0), Fraction(8, 13), 0.0)
        a = tr.abel_probability_floquet(model, 13, 150.0, route="energy")
        b = tr.abel_probability_floquet(model, 13, 150.0, route="kernel")
        assert a == pytest.approx(b, rel=1e-6)

    def test_period_one_model(self):
        m1 = PeriodicModel.from_potential([0.0])
        a = tr.abel_probability_time(FREE_CHAIN, 2, 7.0)
        for route in ("energy", "kernel"):
            assert tr.abel_probability_floquet(m1, 2, 7.0, route=route) == \
                pytest.approx(a, rel=1e-8)

    def test_auto_switches_to_kernel(self):
        val_auto = tr.abel_probability_floquet(self.MODEL, 0, 300.0)
        val_kernel = tr.abel_probability_floquet(self.MODEL, 0, 300.0,
                                                 route="kernel")
        assert val_auto == val_kernel

    def test_explicit_grid_honored(self):
        a = tr.abel_probability_floquet(self.MODEL, 2, 5.0, route="kernel",
                                        kappa_points=512)
        b = tr.abel_probability_floquet(self.MODEL, 2, 5.0, route="kernel")
        assert a == pytest.approx(b, rel=1e-6)

    def test_large_time_narrow_bands(self):
        # the kernel route stays cheap where the energy route would need
        # millions of quadrature points
        model = periodic_model(AmoSampling(2.0), Fraction(8, 13), 0.0)
        p = tr.abel_probability_floquet(model, 13, 3.6e4, route="kernel")
        assert 0.0 < p < 2.0

    def test_kernel_route_is_the_dense_pair_sum(self):
        model = periodic_model(AmoSampling(1.5), Fraction(3, 5), 0.1)
        lams, coeffs = tr._bloch_data(model, 128, 5)
        dense = sum(dense_lorentz_form(lams.ravel(), part(coeffs[i].ravel()),
                                       8403.0)
                    for i in (0, 1) for part in (np.real, np.imag))
        fast = tr.abel_probability_floquet(model, 5, 8403.0, route="kernel",
                                           kappa_points=128)
        assert fast == pytest.approx(dense, rel=1e-12)

    def test_time_route_is_the_dense_pair_sum(self):
        op = finite_operator(Chain(AmoSampling(2.0), GOLDEN, 0.3), 60)
        w, u = op.eigensystem()
        dense = sum(dense_lorentz_form(w, u[op.site_index(3 + i), :]
                                       * u[op.site_index(i), :], 40.0)
                    for i in (0, 1))
        fast = tr.abel_probability_time(op, 3, 40.0)
        assert fast == pytest.approx(dense, rel=1e-12)

    def test_wide_bands_converge_within_the_grid_cap(self):
        # the free period-2 lattice needs 65,536 kappa points at T = 8403
        model = PeriodicModel.from_potential([0.0, 0.0])
        p = tr.abel_probability_floquet(model, 6, 8403.0)
        assert p == pytest.approx(free_legendre_oracle(6, 8403.0), rel=1e-6)

    def test_bad_inputs(self):
        with pytest.raises(InputError):
            tr.abel_probability_floquet(FREE_CHAIN, 0, 5.0)
        with pytest.raises(InputError):
            tr.abel_probability_floquet(self.MODEL, 0, 5.0, route="magic")
        with pytest.raises(InputError):
            tr.abel_probability_floquet(self.MODEL, 0, -1.0)
        with pytest.raises(InputError):
            tr.abel_probability_floquet(self.MODEL, 0, 5.0, kappa_points=0)


class TestSubsequenceTimes:
    def test_fast_growth_frequency_schedule(self):
        freq = construct_liouville_frequency(2.0, 2, 3)
        sch = tr.subsequence_times(freq, gamma0=math.log(1.05), delta=0.45,
                                   eps_prime=0.1256)
        assert sch.indices == (1, 2)
        assert sch.denominators[0] == 2
        assert sch.times[0] == pytest.approx(2.17, rel=0.01)
        assert sch.times[1] == pytest.approx(1.81e9, rel=0.01)
        assert sch.threshold == pytest.approx(
            3.0 * (math.log(1.05) + 2 * 0.1256) / 0.45)

    def test_slow_growth_gives_empty_schedule(self):
        golden = continued_fraction_expansion(Fraction(89, 144))
        sch = tr.subsequence_times(golden, gamma0=0.1, delta=0.25,
                                   eps_prime=0.02)
        assert sch.size == 0
        assert sch.threshold == pytest.approx(3.0 * (0.1 + 0.04) / 0.25)

    def test_astronomical_time_reported_as_inf(self):
        big = 10 ** 4000
        freq = continued_fraction_expansion(Fraction(big, 3000 * big + 1))
        sch = tr.subsequence_times(freq, gamma0=0.1, delta=0.45,
                                   eps_prime=0.05)
        assert sch.size >= 1
        assert sch.times[0] == math.inf

    def test_parameter_validation(self):
        freq = construct_liouville_frequency(2.0, 2, 3)
        with pytest.raises(InputError):
            tr.subsequence_times(freq, gamma0=0.1, delta=0.6, eps_prime=0.1)
        with pytest.raises(InputError):
            tr.subsequence_times(freq, gamma0=-0.1, delta=0.4, eps_prime=0.1)
        with pytest.raises(InputError):
            tr.subsequence_times(freq, gamma0=0.1, delta=0.4, eps_prime=0.0)
