"""Tests for the verification suites, the lower-bound scan machinery,
the depth diagnostics, and the desk-scale demo pipeline."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qptransport import constants as frozen
from qptransport import errors
from qptransport import verify as vf
from qptransport.arithmetic import (construct_liouville_frequency,
                                    continued_fraction_expansion)
from qptransport.errors import (DepthLimitError, InputError,
                                MemoryLimitError, ThresholdError)
from qptransport.floquet import band_structure
from qptransport.operator import (AmoSampling, Chain, PeriodicModel,
                                  TableSampling, ZeroSampling,
                                  finite_operator, periodic_model)
from qptransport.transport import EvolutionConfig, truncation_radius

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
Q2_MODEL = PeriodicModel.from_potential([1.0, -1.0])
#: the suite runs that every check passes clean and must fail under its fault
FLOQUET_RUN = {"count": 6, "q_max": 6, "seed": 5, "samples_per_model": 3}
TRANSPORT_RUN = {"time_scales": (5.0,), "max_site": 24}


def full_spectrum(model):
    bs = band_structure(model)
    return (bs.band(1).lo - 0.1, bs.band(model.q).hi + 0.1)


class TestEnsemble:
    def test_deterministic_under_seed(self):
        a = vf.random_periodic_ensemble(5, 6, seed=3)
        b = vf.random_periodic_ensemble(5, 6, seed=3)
        for ma, mb in zip(a, b):
            assert ma.q == mb.q
            np.testing.assert_array_equal(ma.potential, mb.potential)

    def test_q_range(self, monkeypatch):
        monkeypatch.setattr(vf, "ENSEMBLE_Q_MIN", 3)
        models = vf.random_periodic_ensemble(30, 4, seed=0)
        assert all(3 <= m.q <= 4 for m in models)

    def test_bad_args(self):
        with pytest.raises(InputError):
            vf.random_periodic_ensemble(0, 5)
        with pytest.raises(InputError):
            vf.random_periodic_ensemble(5, 1)


class TestFloquetSuite:
    def test_free_families_zero_violations(self):
        models = [PeriodicModel.from_potential([0.0] * q) for q in (2, 3, 5)]
        rep = vf.floquet_identity_suite(models=models, samples_per_model=3,
                                        seed=2)
        assert rep.instances > 0
        assert rep.violations == 0

    def test_random_ensemble_clean(self):
        rep = vf.floquet_identity_suite(**FLOQUET_RUN)
        assert rep.violations == 0
        seen = {r["check"] for r in rep.artifacts}
        assert seen == set(vf.suite_checks("floquet"))

    def test_corrupted_corner_trips(self):
        rep = vf.floquet_identity_suite(count=4, q_max=6, seed=5,
                                        samples_per_model=2,
                                        checks=("determinant",),
                                        corrupt_corner=True)
        assert rep.violations > 0
        assert rep.worst_margin < 0

    def test_unknown_check_rejected(self):
        with pytest.raises(InputError):
            vf.floquet_identity_suite(count=2, checks=("nonsense",))

    def test_negative_sample_count_rejected(self):
        # once numpy's ValueError for negative dimensions
        with pytest.raises(InputError, match="samples_per_model"):
            vf.floquet_identity_suite(count=2, samples_per_model=-3)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2**32 - 1),
           st.sets(st.sampled_from(vf.suite_checks("floquet")), min_size=1))
    def test_check_rows_do_not_depend_on_the_other_checks(self, seed,
                                                           checks):
        # every draw is made when a case is built, so a subset's rows are
        # the full suite's rows for those checks
        run = {"count": 3, "q_max": 6, "seed": seed, "samples_per_model": 2}
        full = vf.floquet_identity_suite(**run)
        part = vf.floquet_identity_suite(checks=tuple(checks), **run)
        assert part.artifacts == tuple(r for r in full.artifacts
                                       if r["check"] in checks)
        assert part.config_snapshot["skipped"] == {
            name: full.config_snapshot["skipped"][name] for name in checks}

    def test_samples_beyond_physical_memory_build_no_case(self, monkeypatch):
        def no_case(*args):
            raise AssertionError("a case was built")
        monkeypatch.setattr(vf, "_FloquetCase", no_case)
        monkeypatch.setattr(errors.os, "sysconf", lambda name: 1 << 10)
        with pytest.raises(MemoryLimitError,
                           match="Floquet case of 1000000000 samples"):
            vf.floquet_identity_suite(count=2, q_max=8,
                                      samples_per_model=10 ** 9)

    def test_report_row_filter(self):
        rep = vf.floquet_identity_suite(count=3, q_max=5, seed=0,
                                        samples_per_model=2,
                                        checks=("weights", "symmetry"))
        assert len(rep.rows("weights")) + len(rep.rows("symmetry")) \
            == rep.instances
        assert all(r["check"] == "weights" for r in rep.rows("weights"))


class TestTransportSuite:
    def test_routes_agree_q2(self):
        rep = vf.transport_consistency_suite(models=[Q2_MODEL],
                                             time_scales=(5.0,),
                                             checks=("routes",),
                                             max_site=12)
        assert rep.violations == 0
        rows = rep.rows("routes")
        assert len(rows) == 13
        assert all(r["p_time"] > 0 for r in rows)
        assert any(r["n"] < 0 for r in rows)

    def test_routes_make_one_floquet_call_per_model_and_time(
            self, monkeypatch):
        calls = []
        floquet = vf.abel_probability_floquet
        monkeypatch.setattr(vf, "abel_probability_floquet",
                            lambda m, d, *a, **k: calls.append(list(d))
                            or floquet(m, d, *a, **k))
        rep = vf.transport_consistency_suite(models=[Q2_MODEL],
                                             time_scales=(5.0, 20.0),
                                             checks=("routes",), max_site=6)
        assert calls == [[-6, -4, -2, 0, 2, 4, 6]] * 2
        for row in rep.rows("routes"):
            assert row["p_floquet"] == pytest.approx(
                floquet(Q2_MODEL, 2 * row["n"], row["time_scale"],
                        route="kernel"), rel=1e-14)

    def test_routes_make_one_time_call_per_model_and_time(self, monkeypatch):
        calls = []
        time_route = vf.abel_probability_time
        monkeypatch.setattr(vf, "abel_probability_time",
                            lambda m, d, *a, **k: calls.append(list(d))
                            or time_route(m, d, *a, **k))

        def no_distribution(*args, **kwargs):
            raise AssertionError("the routes check needs only its window")

        monkeypatch.setattr(vf, "probability_distribution", no_distribution)
        rep = vf.transport_consistency_suite(models=[Q2_MODEL],
                                             time_scales=(5.0, 20.0),
                                             checks=("routes",), max_site=6)
        assert calls == [[-6, -4, -2, 0, 2, 4, 6]] * 2
        for row in rep.rows("routes"):
            # the window's lattice is the one its largest entry (6, 7) needs
            radius = vf.truncation_radius(row["time_scale"], 7)
            assert type(row["p_time"]) is float
            assert row["p_time"] == pytest.approx(
                time_route(Q2_MODEL, 2 * row["n"], row["time_scale"],
                           radius=radius), rel=1e-14)

    def test_all_checks_clean(self):
        rep = vf.transport_consistency_suite(**TRANSPORT_RUN)
        assert rep.violations == 0
        seen = {r["check"] for r in rep.artifacts}
        assert seen == set(vf.suite_checks("transport"))

    def test_unknown_check_rejected(self):
        with pytest.raises(InputError):
            vf.transport_consistency_suite(checks=("teleport",))

    def test_empty_time_scales_rejected(self):
        # once an IndexError from the first check that reads T
        with pytest.raises(InputError, match="time scale"):
            vf.transport_consistency_suite(time_scales=(),
                                           checks=("truncation",))

    def test_routes_below_floor_marked_and_left_out_of_worst_margin(self):
        # P(60; T = 5) at q = 4 is about 3e-14, under the 1e-12 floor
        model = periodic_model(AmoSampling(1.0), Fraction(1, 4), 0.17)
        rep = vf.transport_consistency_suite(models=[model],
                                             time_scales=(5.0,),
                                             checks=("routes",), max_site=60)
        rows = rep.rows("routes")
        floor = [r for r in rows if r["below_floor"]]
        assert floor and len(floor) < len(rows)
        assert all(max(r["p_time"], r["p_resolvent"], r["p_floquet"])
                   < 1e-12 for r in floor)
        assert rep.violations == 0
        assert rep.worst_margin == min(r["margin"] for r in rows
                                       if not r["below_floor"])


def _scaled(factor):
    return lambda real: lambda *a, **k: real(*a, **k) * factor


def _odd_in_kappa(real):
    def fault(model, kappas):
        lams, phis = real(model, kappas)
        return lams + 1e-6 * np.asarray(kappas)[:, None], phis
    return fault


def _unnormalized(real):
    def fault(model, kappa):
        w, u = real(model, kappa)
        return w, u * 1.000001
    return fault


def _inflated_moments(real):
    def fault(*a, **k):
        mom = real(*a, **k)
        return dataclasses.replace(mom, values=tuple(
            1.001 * v for v in mom.values))
    return fault


def _crossed_bounds(real):
    def fault(*a, **k):
        upper = real(*a, **k)[1]
        return 2.0 * upper, 2.0 * upper
    return fault


def _late_clock(real):
    def fault(op, times, *a):
        return real(op, np.asarray(times, dtype=float) + 1e-6, *a)
    return fault


def _radius_leak(real):
    def fault(*a, radius=None, **k):
        return real(*a, radius=radius, **k) + 1e-7 * (radius or 0)
    return fault


#: check -> (owner, primitive, fault): fault(real) stands in for the
#: primitive the check measures, looked up where verify looks it up
FAULTS = {
    "determinant": (vf, "floquet_matrix", _scaled(1.0 + 1e-3)),
    "derivative": (vf, "eigenvalue_derivative", _scaled(1.0 + 1e-3)),
    "last": (vf, "discriminant_derivative", _scaled(0.0)),
    "sandwich": (vf, "derivative_sandwich", _crossed_bounds),
    "weights": (vf, "floquet_eigensystem", _unnormalized),
    "symmetry": (vf, "fiber_eigensystems", _odd_in_kappa),
    "phi_bound": (vf, "phi_derivative", _scaled(1.01)),
    "chebyshev": (vf, "phi_occupation_measure", _scaled(0.0)),
    "routes": (vf, "abel_resolvent_profile", _scaled(1.01)),
    "unitarity": (vf, "evolve", _scaled(1.0 + 1e-6)),
    "ct": (vf.FiniteOperator, "resolvent",
           lambda real: lambda *a, **k: real(*a, **k) + 1e-6),
    "ballistic": (vf, "evolve",
                  lambda real: lambda *a, **k: real(*a, **k) + 1e-6),
    "moments": (vf, "moments", _inflated_moments),
    "truncation": (vf, "abel_probability_time", _radius_leak),
    "abel": (vf, "abel_probability_time", _scaled(1.0 + 1e-5)),
    "t0": (vf, "evolve", _late_clock),
}


class TestNegativeControls:
    def test_every_check_has_a_fault(self):
        assert set(FAULTS) == set(vf.CHECKS)

    @pytest.mark.parametrize("name", list(FAULTS))
    def test_fault_trips_its_check(self, name, monkeypatch):
        owner, primitive, fault = FAULTS[name]
        monkeypatch.setattr(owner, primitive,
                            fault(getattr(owner, primitive)))
        suite = vf.CHECKS[name][0]
        if suite == "floquet":
            rep = vf.floquet_identity_suite(checks=(name,), **FLOQUET_RUN)
        else:
            rep = vf.transport_consistency_suite(checks=(name,),
                                                 **TRANSPORT_RUN)
        assert rep.violations > 0
        assert {r["check"] for r in rep.artifacts} == {name}


class TestLowerBound:
    def test_calibration_instance_full_pass(self):
        scan = vf.lower_bound_scan(Q2_MODEL, full_spectrum(Q2_MODEL), 250.0,
                                   max_points=12)
        assert scan.q == 2
        assert scan.eta == pytest.approx(2.0, abs=1e-12)
        assert scan.band_width == pytest.approx(math.sqrt(5.0) - 1.0,
                                                rel=1e-6)
        assert scan.window == (1, 115)
        assert scan.fraction_satisfied == 1.0

    def test_window_is_one_floquet_call(self, monkeypatch):
        calls = []
        floquet = vf.abel_probability_floquet
        monkeypatch.setattr(vf, "abel_probability_floquet",
                            lambda m, d, *a, **k: calls.append(list(d))
                            or floquet(m, d, *a, **k))
        scan = vf.lower_bound_scan(Q2_MODEL, full_spectrum(Q2_MODEL), 250.0,
                                   max_points=5)
        assert calls == [[2 * n for n, _, _ in scan.pairs]]
        for n, p, _ in scan.pairs:
            assert type(p) is float
            assert p == pytest.approx(floquet(Q2_MODEL, 2 * n, 250.0),
                                      rel=1e-14)

    def test_window_matches_formula(self):
        scan = vf.lower_bound_scan(Q2_MODEL, full_spectrum(Q2_MODEL), 250.0,
                                   max_points=4)
        c, c1, cap = scan.constants
        lo = cap * scan.q ** 4 / (scan.eta * scan.band_width)
        hi = c1 * scan.eta * scan.band_width * scan.time_scale / scan.q ** 4
        assert scan.window == (math.floor(lo) + 1, math.ceil(hi) - 1)
        rhs = c * scan.eta ** 2 / (scan.q ** 6 * scan.band_width
                                   * scan.time_scale)
        assert all(r == pytest.approx(rhs) for _, _, r in scan.pairs)

    def test_calibration_regeneration(self):
        cal = vf.calibrate_lower_bound(Q2_MODEL, full_spectrum(Q2_MODEL),
                                       250.0, max_points=12)
        # the window-edge point n = 115 is the argmin and is always sampled
        assert cal.min_ratio == pytest.approx(6.398, rel=0.05)
        assert cal.suggested_c >= frozen.LOWER_C

    def test_calibration_is_the_scan_with_c_left_free(self):
        cal = vf.calibrate_lower_bound(Q2_MODEL, full_spectrum(Q2_MODEL),
                                       250.0, max_points=6)
        scan = vf.lower_bound_scan(
            Q2_MODEL, full_spectrum(Q2_MODEL), 250.0,
            (0.0, frozen.LOWER_C1, frozen.LOWER_CAP), max_points=6)
        assert cal == scan
        assert cal.ratios == tuple(
            (n, p * 2 ** 6 * cal.band_width * 250.0 / cal.eta ** 2)
            for n, p, _ in cal.pairs)
        assert cal.min_ratio == min(r for _, r in cal.ratios)
        assert cal.suggested_c == vf.CALIBRATION_SAFETY * cal.min_ratio

    @pytest.mark.parametrize("run", [vf.lower_bound_scan,
                                     vf.calibrate_lower_bound])
    @pytest.mark.parametrize("t_scale", [0.0, math.inf, math.nan])
    def test_time_scale_must_be_finite_and_positive(self, run, t_scale):
        with pytest.raises(InputError):
            run(Q2_MODEL, full_spectrum(Q2_MODEL), t_scale)

    def test_threshold_error_below_admissible(self):
        with pytest.raises(ThresholdError) as exc:
            vf.lower_bound_scan(Q2_MODEL, full_spectrum(Q2_MODEL), 0.05)
        assert exc.value.minimal_admissible is not None
        assert exc.value.minimal_admissible > 0.05

    def test_minimal_admissible_time(self):
        t1 = vf.minimal_admissible_time(2, 2.0, 1.2)
        t2 = vf.minimal_admissible_time(2, 0.5, 1.2)
        assert t2 > t1 > 0
        with pytest.raises(InputError):
            vf.minimal_admissible_time(2, 0.0, 1.2)

    @pytest.mark.parametrize("seed", range(6))
    def test_widest_band_has_the_longest_window(self, seed):
        # the closed form against the search it replaced: the band meeting
        # the interval whose window length is largest, first on ties
        rng = np.random.default_rng(seed)
        model = PeriodicModel.from_potential(rng.uniform(-2, 2, 2 + seed))
        interval = full_spectrum(model)
        constants = (frozen.LOWER_C, frozen.LOWER_C1, frozen.LOWER_CAP)
        eta, j, ell, n_lo, n_hi, _ = vf._scan_window(model, interval, 1e9,
                                                     constants)
        _, c1, cap = constants
        q = model.q
        lengths = [c1 * eta * b.width * 1e9 / q ** 4
                   - cap * q ** 4 / (eta * b.width)
                   for b in band_structure(model).bands]
        assert j == 1 + int(np.argmax(lengths))
        assert ell == band_structure(model).band(j).width

    @pytest.mark.parametrize("constants", [
        (3.0, 0.0, 10.0), (3.0, -1.0, 10.0), (3.0, 3.0, -0.5),
        (3.0, math.nan, 10.0), (math.inf, 3.0, 10.0), (3.0, 3.0, math.inf),
    ], ids=["c1-zero", "c1-negative", "cap-negative", "c1-nan", "c-inf",
            "cap-inf"])
    def test_constants_outside_the_bound_are_input_errors(self, constants):
        # c1 = 0 divided by zero, and c1 = -1 named a minimal T of 0.9995
        with pytest.raises(InputError, match="c1 > 0 and cap >= 0"):
            vf.lower_bound_scan(Q2_MODEL, full_spectrum(Q2_MODEL), 250.0,
                                constants)
        with pytest.raises(InputError, match="c1 > 0 and cap >= 0"):
            vf.minimal_admissible_time(2, 2.0, 1.2, constants)

    def test_gap_interval_rejected(self):
        bs = band_structure(Q2_MODEL)
        gap_mid = 0.5 * (bs.band(1).hi + bs.band(2).lo)
        width = 0.25 * (bs.band(2).lo - bs.band(1).hi)
        with pytest.raises(InputError):
            vf.lower_bound_scan(Q2_MODEL, (gap_mid - width, gap_mid + width),
                                250.0)

    def test_out_of_sample_q3(self):
        model = periodic_model(AmoSampling(2.0), Fraction(1, 3), 0.1)
        bs = band_structure(model)
        ell = float(max(bs.widths))
        t_use = 1.3 * model.q ** 4 / (frozen.LOWER_C1 * 2.0 * ell)
        scan = vf.lower_bound_scan(model, full_spectrum(model), t_use,
                                   config=EvolutionConfig(
                                       energy_rel_tol=1e-3))
        assert scan.fraction_satisfied >= 0.9


class TestBandwidth:
    def test_minimum_matches_direct_computation(self):
        golden = continued_fraction_expansion(GOLDEN, max_terms=10)
        f = AmoSampling(2.0)
        rep = vf.bandwidth_proposition_check(f, golden, [4], theta_count=64)
        row = rep.rows("minimum")[0]
        assert row["q"] == 5
        model = periodic_model(f, golden.convergent(4), 0.0)
        bs = band_structure(model)
        from qptransport.transfer import lyapunov_exponent
        direct = min(
            math.log(bs.band(j).width) / 5
            + lyapunov_exponent(f, GOLDEN, bs.band(j).center, n_steps=5,
                                theta_count=64).gamma_hat
            for j in range(1, 6))
        assert row["min_value"] == pytest.approx(direct, abs=1e-12)
        assert rep.config_snapshot["trend"] == "insufficient depths"

    def test_trend_rows_appear_with_two_depths(self):
        golden = continued_fraction_expansion(GOLDEN, max_terms=10)
        rep = vf.bandwidth_proposition_check(AmoSampling(2.0), golden,
                                             [4, 5], theta_count=32)
        assert len(rep.rows("trend")) == 1
        assert rep.config_snapshot["trend"] in (
            "nondecreasing", "decreasing at depth steps [0]")

    def test_empty_depths_rejected(self):
        golden = continued_fraction_expansion(GOLDEN, max_terms=10)
        with pytest.raises(InputError):
            vf.bandwidth_proposition_check(AmoSampling(2.0), golden, [])

    def test_period_one_rejected(self):
        golden = continued_fraction_expansion(GOLDEN, max_terms=10)
        with pytest.raises(InputError):
            vf.bandwidth_proposition_check(AmoSampling(2.0), golden, [1])

    def test_huge_period_raises_depth_limit(self):
        freq = construct_liouville_frequency(2.0, 2, 3)
        with pytest.raises(DepthLimitError) as exc:
            vf.bandwidth_proposition_check(AmoSampling(2.0), freq, [1, 3],
                                           theta_count=8)
        assert exc.value.achieved_depth == 1


class TestTheoremDemo:
    def test_amo_pipeline(self):
        rep = vf.theorem_demo(AmoSampling(1.05), 0.45, theta_grid=16)
        # an unraised target is the threshold
        assert not rep.config_snapshot["beta_target_bumped"]
        assert rep.eps_prime == (2.0 * 0.45 / 3.0 - rep.gamma0) / 2.0
        assert rep.threshold == pytest.approx(rep.beta_target, rel=1e-12)
        assert rep.schedule.indices == (1, 2)
        assert rep.beta_hat > rep.threshold
        assert rep.schedule.size >= 2
        first = rep.points[0]
        assert first.feasible
        for p in (1, 2):
            target = 0.01 * first.time_scale ** ((1.0 - 0.45) * p)
            assert first.min_moments[p] > target
        assert first.refined_change < 0.05
        later = [pt for pt in rep.points if not pt.feasible]
        assert later
        assert all(pt.note for pt in later)

    def test_free_sampling_clamps_gamma(self):
        rep = vf.theorem_demo(ZeroSampling(), 0.45, theta_grid=8)
        assert rep.gamma0 == pytest.approx(1e-4)
        assert rep.gamma0_clamped
        first = rep.points[0]
        assert first.feasible
        t = first.time_scale
        assert first.min_moments[2] == pytest.approx(2.0 * t * t, rel=0.2)

    def test_delta_validation(self):
        with pytest.raises(InputError):
            vf.theorem_demo(ZeroSampling(), 0.6)
        with pytest.raises(InputError):
            vf.theorem_demo(ZeroSampling(), 0.0)

    @pytest.mark.parametrize("p_list", [(1, -0.5), (1, math.nan), (1, -1),
                                        (1, math.inf), (), (2, 1.0, 2)])
    def test_order_validation_comes_before_every_stage(self, monkeypatch,
                                                       p_list):
        monkeypatch.setattr(vf, "construct_liouville_frequency", None)
        with pytest.raises(InputError, match="finite orders >= 0"):
            vf.theorem_demo(ZeroSampling(), 0.45, p_list=p_list)

    def test_report_metadata(self):
        rep = vf.theorem_demo(AmoSampling(1.05), 0.45, theta_grid=8)
        assert rep.eta_by_depth
        assert rep.frequency.depth >= 2
        assert rep.eps_prime > 0
        assert rep.config_snapshot["probe_q"] >= 2
        assert len(rep.feasible_points) >= 1

    @pytest.mark.parametrize("lam, delta", [(1.4, 0.45), (1.45, 0.45),
                                            (1.5, 0.45), (2.0, 0.45),
                                            (3.0, 0.45), (1.3, 0.3)])
    def test_raised_target_keeps_the_deeper_probe(self, lam, delta):
        # the default target leaves no slack above 3 gamma0 / delta; the
        # raised ladder's only probe-sized convergent is q = 2, whose two
        # band centres would read gamma0 high enough to make eps' negative
        rep = vf.theorem_demo(AmoSampling(lam), delta, theta_grid=1,
                              max_radius=500)
        snap = rep.config_snapshot
        assert snap["beta_target_bumped"]
        assert (snap["probe_q"], snap["probe_depth"]) == (55, 2)
        assert rep.eps_prime > 0
        assert rep.beta_target == pytest.approx(
            3.0 * (rep.gamma0 + 0.05) / delta, rel=1e-12)
        # the raised ladder grows at beta_target to the last bit, so a
        # threshold equal to it would schedule no convergent (q = 2 is
        # scheduled at every lambda; at lambda = 3 it needs radius 2334)
        assert 3.0 * rep.gamma0 / delta < rep.threshold < rep.beta_target
        assert rep.threshold < rep.beta_hat
        assert rep.schedule.denominators[0] == 2
        assert rep.feasible_points or rep.points[0].required_radius > 500

    def test_raised_target_reprobes_an_approximant_as_deep(self):
        rep = vf.theorem_demo(AmoSampling(1.37), 0.45, theta_grid=1)
        snap = rep.config_snapshot
        assert snap["beta_target_bumped"]
        assert (snap["probe_q"], snap["probe_depth"]) == (103, 2)
        assert rep.frequency.convergent(2).denominator == 103
        assert rep.eps_prime > 0

    def test_ladder_stops_where_its_next_exponent_is_too_large(self):
        rep = vf.theorem_demo(AmoSampling(1.05), 0.45, beta_target=10.0,
                              theta_grid=1)
        freq = rep.frequency
        assert [freq.convergent(m) for m in range(1, freq.depth + 1)] == [
            Fraction(1, 2), Fraction(242582597, 485165195)]
        assert rep.config_snapshot["probe_q"] == 2
        assert rep.eps_prime > 0

    def test_phase_grid_and_its_midpoints_in_one_pass(self, monkeypatch):
        # the 2G = 8 phases j / 8 in one pass: j = 0 .. G on their own
        # lattices, and for the even AMO sampling phase 8 - j as phase j's
        # lattice reflected, right after it
        real, lattices = vf.moments, []

        def spy(op, t, *args, **kw):
            lattices.append(op.diagonal)
            return real(op, t, *args, **kw)

        monkeypatch.setattr(vf, "moments", spy)
        f = AmoSampling(1.05)
        rep = vf.theorem_demo(f, 0.45, theta_grid=4)
        assert rep.feasible_points
        pt = rep.feasible_points[0]
        t_scale, alpha = pt.time_scale, rep.frequency.float_value
        radius = truncation_radius(t_scale, 1)
        ops = {j: finite_operator(Chain(f, alpha, j / 8), radius)
               for j in range(5)}
        ops.update({8 - j: ops[j].mirrored() for j in (1, 2, 3)})
        order = [0, 1, 7, 2, 6, 3, 5, 4]
        assert len(lattices) == 8 * len(rep.feasible_points)
        for j, diagonal in zip(order, lattices):
            assert diagonal.tolist() == ops[j].diagonal.tolist()
        values = [real(ops[j], t_scale, orders=(1, 2)).values
                  for j in range(8)]
        for j in range(5):
            assert values[j] == real(Chain(f, alpha, j / 8), t_scale,
                                     orders=(1, 2)).values
        changes = []
        for j, p in enumerate((1, 2)):
            grid = [v[j] for v in values[::2]]
            assert pt.min_moments[p] == min(grid)
            assert pt.argmin_theta[p] == grid.index(min(grid)) / 4
            low = min(v[j] for v in values)
            changes.append(abs(low - min(grid)) / min(grid))
        assert pt.refined_change == max(changes)

    def test_uneven_sampling_solves_every_phase(self, monkeypatch):
        def no_mirror(op):
            raise AssertionError("an uneven sampling has no mirror phase")

        real, phases = vf.moments, []

        def spy(op, t, *args, **kw):
            phases.append(op.diagonal)
            return real(op, t, *args, **kw)

        monkeypatch.setattr(vf.FiniteOperator, "mirrored", no_mirror)
        monkeypatch.setattr(vf, "moments", spy)
        f = TableSampling([0.0, 1.0, 2.5, -1.0, 0.5])
        rep = vf.theorem_demo(f, 0.45, theta_grid=4)
        assert rep.feasible_points
        radius = truncation_radius(rep.feasible_points[0].time_scale, 1)
        alpha = rep.frequency.float_value
        assert len(phases) == 8 * len(rep.feasible_points)
        for j, diagonal in enumerate(phases[:8]):
            assert diagonal.tolist() == \
                Chain(f, alpha, j / 8).potential(-radius, radius).tolist()


#: the time route's fixed numerics, which every report that runs the time
#: route records by name
TIME_ROUTE_VALUES = {"TAIL_TOLERANCE": 1e-6, "TRUNCATION_SPEED": 2.2,
                     "TRUNCATION_PAD": 48.0, "BOUNDARY_WIDTH": 8,
                     "BOUNDARY_MASS_TOL": 1e-7}


def test_reports_record_their_fixed_numerics():
    floquet = vf.floquet_identity_suite(count=1, q_max=3,
                                        checks=("weights",))
    assert floquet.config_snapshot["constants"] == {
        "V_SCALE": 2.0, "DET_TOL": 1e-8, "DERIV_REL_TOL": 1e-4,
        "WEIGHT_TOL": 1e-10, "PHI_FD_REL_TOL": 1e-3}
    transport = vf.transport_consistency_suite(checks=("t0",))
    assert transport.config_snapshot["config"] == {"energy_rel_tol": 1e-4}
    assert transport.config_snapshot["constants"].items() >= {
        **TIME_ROUTE_VALUES, "MAX_KAPPA_POINTS": 65536}.items()
    demo = vf.theorem_demo(ZeroSampling(), 0.45, depth_budget=2,
                           theta_grid=1)
    assert demo.config_snapshot["constants"] == {
        **TIME_ROUTE_VALUES, "PROBE_STEPS": 2000, "PROBE_THETAS": 32}
