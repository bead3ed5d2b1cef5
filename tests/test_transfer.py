"""Tests for transfer products, Lyapunov estimates, and block statistics."""

import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qptransport import transfer
from qptransport.errors import InputError, MemoryLimitError, NumericalError
from qptransport.operator import (AmoSampling, Chain, PeriodicModel,
                                  ZeroSampling, periodic_model)
from qptransport.floquet import band_structure
from qptransport.transfer import (GOLDEN_MEAN, RENORM_CADENCE,
                                  LyapunovEstimate, TransferProduct,
                                  cocycle, cocycle_orbit,
                                  gordon_block_statistic,
                                  lyapunov_exponent,
                                  min_lyapunov_on_spectrum, transfer_difference,
                                  transfer_product)

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def recurrence_solution(v, energy, psi0, psi_m1):
    """Direct second-order recurrence: psi(n+1) = (E - V(n)) psi(n) - psi(n-1)."""
    prev, cur = psi_m1, psi0
    for vn in v:
        prev, cur = cur, (energy - vn) * cur - prev
    return cur, prev  # (psi(n+1), psi(n)) after consuming v = V(0..n)


def log_norm(tp):
    """log of the spectral norm of the true product."""
    return tp.log_scale + math.log(np.linalg.norm(tp.matrix_scaled, 2))


def backward_recurrence_solution(v, energy, psi1, psi0):
    """psi(n-1) = (E - V(n)) psi(n) - psi(n+1), consuming v = V(n), V(n-1), ..."""
    nxt, cur = psi1, psi0
    for vn in v:
        nxt, cur = cur, (energy - vn) * cur - nxt
    return nxt, cur


class TestCocycle:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 200), st.integers(0, 2**32 - 1),
           st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=5),
           st.booleans())
    def test_matches_scalar_recurrence(self, length, seed, energies,
                                       inverse):
        # lengths past RENORM_CADENCE exercise the renormalization
        rng = np.random.default_rng(seed)
        v = rng.uniform(-3.0, 3.0, length)
        start = rng.uniform(-1.0, 1.0, 2)
        energies = np.array(energies)
        a = energies[None, :, None] - v[:, None, None]
        *_, (x, y, log_scale) = cocycle_orbit(a, start[0], start[1], inverse)
        assert x.shape == (len(energies), 1)
        oracle = backward_recurrence_solution if inverse \
            else recurrence_solution
        for k, e in enumerate(energies):
            want = oracle(v, e, start[0], start[1])
            got = np.ldexp([x[k, 0], y[k, 0]], log_scale[k])
            np.testing.assert_allclose(got, want, rtol=1e-10,
                                       atol=1e-10 * max(map(abs, want)))

    def test_orbit_yields_every_step_and_renormalizes_on_cadence(self):
        v = np.full(3 * RENORM_CADENCE, -1.0)
        states = list(cocycle_orbit(2.0 - v, 1.0, 0.0))
        assert len(states) == 3 * RENORM_CADENCE
        assert states[0][0].shape == (1,)
        # the scale is an integer base-2 exponent
        scales = [int(s) for _, _, s in states]
        assert scales[RENORM_CADENCE - 2] == 0
        assert scales[RENORM_CADENCE - 1] > 0
        for n in (5, RENORM_CADENCE + 7, len(v) - 1):
            x, y, s = states[n]
            want = recurrence_solution(v[:n + 1], 2.0, 1.0, 0.0)
            np.testing.assert_allclose(np.ldexp([x[0], y[0]], s), want,
                                       rtol=1e-12)

    def test_groups_share_one_scale(self):
        # two columns of one product are scaled together, so their ratio
        # survives renormalization exactly as the unscaled recurrence has it
        v = np.linspace(-1.0, 1.0, 70)
        x, y, s = cocycle(0.3 - v, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        assert np.shape(s) == ()
        dense = np.eye(2)
        for vn in v:
            dense = np.array([[0.3 - vn, -1.0], [1.0, 0.0]]) @ dense
        np.testing.assert_allclose(np.ldexp([x, y], s), dense, rtol=1e-12)

    @pytest.mark.parametrize("energy", [1e12, 1e60, 1e150])
    def test_large_energies_renormalize_before_overflow(self, energy):
        x, y, s = cocycle(np.full(40, energy), 1.0, 0.0)
        assert np.isfinite(x[0]) and np.isfinite(y[0])
        assert float(s) * math.log(2.0) + math.log(abs(x[0])) == \
            pytest.approx(40 * math.log(energy), rel=1e-12)

    def test_unrenormalized_states_stay_unscaled(self):
        v = np.full(RENORM_CADENCE + 3, 0.5)
        *_, (x, y, s) = cocycle_orbit(3.0 - v, 1.0, 0.0, renormalize=False)
        assert s == 0
        assert (x[0], y[0]) == recurrence_solution(v, 3.0, 1.0, 0.0)

    def test_unrenormalized_orbit_stops_at_overflow_guard(self):
        # growth ((10 + sqrt 96) / 2)^n passes 1e250 at step 251
        with pytest.raises(NumericalError, match="step 251"):
            for _ in cocycle_orbit(np.full(600, 10.0), 1.0, 0.0,
                                   renormalize=False):
                pass


class TestTransferProduct:
    def test_single_step_matrix(self):
        tp = transfer_product(np.array([0.7]), 2.0, 5, 5)
        np.testing.assert_allclose(tp.matrix, [[1.3, -1.0], [1.0, 0.0]])

    def test_propagates_recurrence_solutions(self):
        rng = np.random.default_rng(7)
        v = rng.uniform(-2, 2, 40)
        e = 0.37
        tp = transfer_product(v, e, 0, 39)
        out = tp.matrix @ np.array([1.0, 0.3])
        expect = recurrence_solution(v, e, 1.0, 0.3)
        np.testing.assert_allclose(out, expect, rtol=1e-10)

    def test_composition_over_subintervals(self):
        rng = np.random.default_rng(11)
        v = rng.uniform(-1, 1, 30)
        whole = transfer_product(v, 0.2, 0, 29)
        left = transfer_product(v[:12], 0.2, 0, 11)
        right = transfer_product(v[12:], 0.2, 12, 29)
        np.testing.assert_allclose(whole.matrix, right.matrix @ left.matrix,
                                   rtol=1e-10)

    def test_periodic_double_period_is_square(self):
        model = PeriodicModel.from_potential([1.0, -0.5, 0.3])
        one = transfer_product(model, 0.4, 0, 2)
        two = transfer_product(model, 0.4, 0, 5)
        np.testing.assert_allclose(two.matrix, one.matrix @ one.matrix,
                                   rtol=1e-12)

    def test_det_stream_long_hyperbolic_product(self):
        chain = Chain(AmoSampling(2.0), GOLDEN, 0.1)
        tp = transfer_product(chain, 0.5, 0, 99_999)
        assert abs(tp.det_log) < 1e-10
        assert tp.det_sign == 1
        # growth rate of the supercritical cocycle is log(coupling)
        assert log_norm(tp) / 100_000 == pytest.approx(math.log(2.0),
                                                      rel=0.01)

    def test_large_energy_product(self):
        # the cadence alone would let a 32-step block pass 1e308 here
        tp = transfer_product(np.zeros(300), 1e30, 0, 299)
        assert log_norm(tp) / 300 == pytest.approx(math.log(1e30),
                                                   rel=1e-12)
        assert abs(tp.det_log) < 1e-10 and tp.det_sign == 1

    def test_matrix_overflow_raises(self):
        chain = Chain(AmoSampling(2.0), GOLDEN, 0.1)
        tp = transfer_product(chain, 0.5, 0, 9_999)
        assert tp.log_scale > 700.0
        with pytest.raises(NumericalError):
            _ = tp.matrix

    def test_log_norm_matches_dense_norm(self):
        rng = np.random.default_rng(5)
        v = rng.uniform(-1, 1, 50)
        tp = transfer_product(v, 0.8, 0, 49)
        dense = np.linalg.norm(tp.matrix, 2)
        assert log_norm(tp) == pytest.approx(math.log(dense), abs=1e-10)

    def test_empty_interval_rejected(self):
        with pytest.raises(InputError):
            transfer_product(np.array([1.0]), 0.0, 3, 2)

    def test_wrong_array_length_rejected(self):
        with pytest.raises(InputError):
            transfer_product(np.array([1.0, 2.0]), 0.0, 0, 2)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(-2, 2), min_size=1, max_size=20),
           st.floats(-3, 3))
    def test_determinant_one_property(self, v, e):
        tp = transfer_product(np.array(v), e, 0, len(v) - 1)
        assert abs(tp.det_log) < 1e-9
        assert tp.det_sign == 1
        # the dense determinant loses digits at scale ||M||^2 * eps, which is
        # what the factor stream avoids; compare at the honest scale
        m = tp.matrix
        tol = 1e-12 * np.linalg.norm(m) ** 2 + 1e-9
        assert abs(np.linalg.det(m) - 1.0) < tol


class TestLyapunov:
    def test_free_hyperbolic_energy(self):
        est = lyapunov_exponent(ZeroSampling(), GOLDEN, 3.0,
                                n_steps=2000, theta_count=2)
        assert est.gamma_hat == pytest.approx(
            math.log((3.0 + math.sqrt(5.0)) / 2.0), rel=0.01)

    @pytest.mark.parametrize("energy", [math.nan, [0.0, math.inf]])
    def test_non_finite_energies_are_input_errors(self, energy):
        # a NaN energy once gave a NaN gamma_hat
        with pytest.raises(InputError, match="finite"):
            lyapunov_exponent(ZeroSampling(), GOLDEN, energy, n_steps=10,
                              theta_count=2)

    def test_free_spectrum_interior_is_zero(self):
        est = lyapunov_exponent(ZeroSampling(), GOLDEN, 0.0,
                                n_steps=2048, theta_count=2)
        assert abs(est.gamma_hat) < 0.01

    def test_supercritical_on_spectrum_value(self):
        # on the spectrum the exponent equals log(coupling); probe the band
        # centers of a deep rational approximant
        coupling = 2.0
        model = periodic_model(AmoSampling(coupling), Fraction(34, 55), 0.0)
        centers = band_structure(model).centers
        res = min_lyapunov_on_spectrum(AmoSampling(coupling), GOLDEN, centers,
                                       n_steps=3000, theta_count=20)
        assert res.gamma == pytest.approx(math.log(coupling), rel=0.02)
        assert res.energy in centers

    def test_estimate_fields(self):
        est = lyapunov_exponent(ZeroSampling(), GOLDEN, 3.0,
                                n_steps=64, theta_count=5)
        assert isinstance(est, LyapunovEstimate)
        assert est.per_theta.shape == (5,)
        assert est.stderr >= 0.0

    def test_random_theta_mode_is_seeded(self):
        kw = dict(n_steps=200, theta_count=8, theta_mode="random", seed=42)
        a = lyapunov_exponent(AmoSampling(1.0), GOLDEN, 1.0, **kw)
        b = lyapunov_exponent(AmoSampling(1.0), GOLDEN, 1.0, **kw)
        assert a.gamma_hat == b.gamma_hat

    def test_bad_arguments(self):
        with pytest.raises(InputError):
            lyapunov_exponent(ZeroSampling(), GOLDEN, 0.0, n_steps=0)
        with pytest.raises(InputError):
            lyapunov_exponent(ZeroSampling(), GOLDEN, 0.0, theta_count=0)
        with pytest.raises(InputError):
            lyapunov_exponent(ZeroSampling(), GOLDEN, 0.0, theta_mode="grid")
        with pytest.raises(InputError):
            min_lyapunov_on_spectrum(ZeroSampling(), GOLDEN, [])

    def test_golden_grid_constant(self):
        assert GOLDEN_MEAN == pytest.approx(GOLDEN)

    def test_energy_array_gives_array_fields(self):
        est = lyapunov_exponent(AmoSampling(1.0), GOLDEN, [0.5, -1.0, 0.5],
                                n_steps=70, theta_count=6)
        assert est.gamma_hat.shape == est.stderr.shape == (3,)
        assert est.per_theta.shape == (3, 6)
        assert (est.n_steps, est.theta_count) == (70, 6)
        one = lyapunov_exponent(AmoSampling(1.0), GOLDEN, 0.5, n_steps=70,
                                theta_count=6)
        assert isinstance(one.gamma_hat, float)
        assert isinstance(one.stderr, float)
        assert est.gamma_hat[0] == est.gamma_hat[2] == one.gamma_hat

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(-6.0, 6.0) | st.floats(-1e6, 1e6),
                    min_size=1, max_size=8),
           st.integers(1, 48), st.integers(1, 20), st.integers(1, 31),
           st.sampled_from(["golden", "random"]), st.integers(0, 2**32 - 1),
           st.sampled_from([1 << 10, 1 << 17]), st.floats(0.0, 3.0))
    @example(energies=[2.0, -0.5], theta_count=1, cadences=4, rest=5,
             mode="random", seed=9, block=1 << 10, coupling=1.5)
    @example(energies=[3.787077762095034, 19669.0], theta_count=14,
             cadences=20, rest=31, mode="golden", seed=703, block=1 << 17,
             coupling=1.9773871285290547)
    def test_batched_energies_match_scalar_calls(self, energies, theta_count,
                                                 cadences, rest, mode, seed,
                                                 block, coupling):
        # unsorted energies with repeats, n_steps off the cadence, and
        # blocks small enough (2^10 entries) that the run crosses several.
        # A large energy makes the batch renormalize off the cadence; the
        # cocycle scales by powers of two, so no value moves.  The second
        # example once differed by 1.27e-13 at E = 3.787.
        energies = energies + energies[:2]
        n_steps = RENORM_CADENCE * cadences + rest
        f = AmoSampling(coupling)
        with mock.patch.object(transfer, "_BLOCK_ENTRIES", block):
            batch = lyapunov_exponent(f, GOLDEN, energies, n_steps,
                                      theta_count, mode, seed)
        for k, e in enumerate(energies):
            one = lyapunov_exponent(f, GOLDEN, e, n_steps, theta_count, mode,
                                    seed)
            assert batch.gamma_hat[k] == one.gamma_hat
            assert batch.stderr[k] == one.stderr
            assert np.array_equal(batch.per_theta[k], one.per_theta)

    def test_memory_preflight_refuses_before_the_phase_grid(self):
        def no_grid(*args):
            raise AssertionError("the phase grid was built")
        with mock.patch.object(transfer, "_theta_grid", no_grid):
            with pytest.raises(MemoryLimitError,
                               match="Lyapunov block over 1000000000000 "
                                     r"phases needs about .* GiB"):
                lyapunov_exponent(ZeroSampling(), GOLDEN, 0.0, n_steps=100,
                                  theta_count=10**12)


class TestGordonStatistic:
    def test_identity(self):
        assert gordon_block_statistic(np.eye(2)) == pytest.approx(1.0)

    def test_quarter_rotation(self):
        a = np.array([[0.0, -1.0], [1.0, 0.0]])
        assert gordon_block_statistic(a) == pytest.approx(1.0)

    def test_hyperbolic_contraction_direction(self):
        a = np.diag([2.0, 0.5])
        # u along the contracted direction: the inverse powers recover growth
        assert gordon_block_statistic(a, u=[0.0, 1.0]) == pytest.approx(4.0)

    def test_lower_bound_over_random_unimodular(self):
        rng = np.random.default_rng(2024)
        for _ in range(300):
            m = rng.normal(size=(2, 2))
            det = np.linalg.det(m)
            if abs(det) < 1e-3:
                continue
            if det < 0:
                m[0] = -m[0]
                det = -det
            m /= math.sqrt(det)
            ang = rng.uniform(0, 2 * math.pi)
            u = np.array([math.cos(ang), math.sin(ang)])
            assert gordon_block_statistic(m, u) >= 0.5 - 1e-12

    def test_rejects_non_unimodular(self):
        with pytest.raises(InputError):
            gordon_block_statistic(2.0 * np.eye(2))

    @pytest.mark.parametrize("energy", [3.0, 3.5])
    def test_accepts_large_period_blocks(self, energy):
        # the 5/13 block at these energies has entries up to 2e4 and 8e5, so
        # its floating-point det (0.99999997 and 1.0000153) misses 1 by more
        # than 1e-8 but stays within the rounding of a00 a11 - a01 a10
        model = periodic_model(AmoSampling(1.0), Fraction(5, 13), 0.1)
        a = np.asarray(transfer_product(model, energy, 0, 12).matrix)
        # det A = 1 by contract, so A^-1 is the adjugate, not adj / det
        adj = np.array([[a[1, 1], -a[0, 1]], [-a[1, 0], a[0, 0]]])
        u = np.array([1.0, 0.0])
        want = max(np.linalg.norm(a @ (a @ u)), np.linalg.norm(a @ u),
                   np.linalg.norm(adj @ u), np.linalg.norm(adj @ (adj @ u)))
        assert gordon_block_statistic(a) == pytest.approx(want, rel=1e-15)

    def test_rejects_small_det_drift_of_a_small_block(self):
        with pytest.raises(InputError):
            gordon_block_statistic(np.array([[1.0, 1e-3], [0.0, 1.001]]))

    def test_rejects_non_unit_vector(self):
        with pytest.raises(InputError):
            gordon_block_statistic(np.eye(2), u=[1.0, 1.0])

    def test_rejects_wrong_shape(self):
        with pytest.raises(InputError):
            gordon_block_statistic(np.eye(3))


class TestTransferDifference:
    def test_exact_approximant_gives_zero(self):
        d = transfer_difference(AmoSampling(0.5), Fraction(5, 8),
                                Fraction(5, 8), 0.0, 0.3)
        assert d == 0.0

    def test_golden_vs_convergent_positive(self):
        d = transfer_difference(AmoSampling(0.5), GOLDEN, Fraction(5, 8),
                                0.0, 0.0)
        assert 0.0 < d < 100.0

    def test_default_range_is_two_periods(self):
        f = AmoSampling(0.5)
        d_default = transfer_difference(f, GOLDEN, Fraction(5, 8), 0.2, 0.1)
        d_explicit = transfer_difference(f, GOLDEN, Fraction(5, 8), 0.2, 0.1,
                                         n_max=16)
        assert d_default == d_explicit

    def test_better_approximant_smaller_difference(self):
        # same inspection range: a deeper convergent tracks the true orbit
        # more closely
        f = AmoSampling(0.5)
        coarse = transfer_difference(f, GOLDEN, Fraction(2, 3), 0.0, 0.0,
                                     n_max=16)
        fine = transfer_difference(f, GOLDEN, Fraction(5, 8), 0.0, 0.0,
                                   n_max=16)
        assert fine < coarse

    def test_overflow_raises(self):
        with pytest.raises(NumericalError):
            transfer_difference(ZeroSampling(), GOLDEN, Fraction(5, 8),
                                0.0, 10.0, n_max=600)

    def test_backward_exact_approximant_gives_zero(self):
        d = transfer_difference(AmoSampling(0.5), Fraction(5, 8),
                                Fraction(5, 8), 0.0, 0.3, backward=True)
        assert d == 0.0

    def test_backward_matches_recurrence_oracle(self):
        f = AmoSampling(0.5)
        am = Fraction(5, 8)
        sites = np.arange(-1, -17, -1)
        v_true = f((0.2 + sites * GOLDEN) % 1.0)
        v_appr = f((0.2 + sites * 5 / 8) % 1.0)
        want = max(math.hypot(*np.subtract(
            backward_recurrence_solution(v_true[:n], 0.1, 0.6, 0.8),
            backward_recurrence_solution(v_appr[:n], 0.1, 0.6, 0.8)))
                   for n in range(1, 17))
        got = transfer_difference(f, GOLDEN, am, 0.2, 0.1, u=(0.6, 0.8),
                                  backward=True)
        assert got == pytest.approx(want, rel=1e-9)

    def test_requires_fraction_approximant(self):
        with pytest.raises(InputError):
            transfer_difference(ZeroSampling(), GOLDEN, 0.625, 0.0, 0.0)
