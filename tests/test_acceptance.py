"""Acceptance suite: twelve headline checks, one test (and one printed
pass/fail line) per criterion.

Run with `pytest -v tests/test_acceptance.py` for the per-criterion
PASSED/FAILED lines, add `-s` to also see the printed detail lines.
Each criterion asserts its numerical contract and, where a runtime
budget applies, that the run stayed inside it.
"""

import math
import time
from fractions import Fraction

import numpy as np
from scipy.special import jv

from qptransport import constants as frozen
from qptransport import verify as vf
from qptransport.arithmetic import continued_fraction_expansion
from qptransport.floquet import band_structure, measure_kappa_infimum
from qptransport.operator import (AmoSampling, Chain, ZeroSampling,
                                  finite_operator, periodic_model)
from qptransport.transfer import (gordon_block_statistic, lyapunov_exponent,
                                  min_lyapunov_on_spectrum, transfer_product)
from qptransport.transport import EvolutionConfig, evolve

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _report(num: int, detail: str, ok: bool, elapsed: float,
            budget: float | None) -> None:
    verdict = "PASS" if ok else "FAIL"
    line = f"criterion {num:02d} {verdict}: {detail} [{elapsed:.1f}s"
    line += f" / budget {budget:.0f}s]" if budget else "]"
    print(line)
    assert ok, line
    if budget is not None:
        assert elapsed < budget, f"criterion {num} exceeded budget: {line}"


def test_criterion_01_fiber_determinant_identity():
    t0 = time.perf_counter()
    rep = vf.floquet_identity_suite(count=100, q_max=12, seed=11,
                                    checks=("determinant",),
                                    samples_per_model=4)
    elapsed = time.perf_counter() - t0
    assert rep.config_snapshot["constants"]["DET_TOL"] == 1e-8
    _report(1, f"det identity on {rep.instances} random (model, kappa, E) "
               f"draws, {rep.violations} violations, "
               f"worst margin {rep.worst_margin:.3e}",
            rep.instances >= 400 and rep.violations == 0, elapsed, 10.0)


def test_criterion_02_eigenvalue_derivative_identity():
    t0 = time.perf_counter()
    rep = vf.floquet_identity_suite(count=60, q_max=10, seed=2,
                                    checks=("derivative", "sandwich"))
    elapsed = time.perf_counter() - t0
    assert rep.config_snapshot["constants"]["DERIV_REL_TOL"] == 1e-4
    _report(2, f"derivative identity vs central differences on "
               f"{rep.instances} samples, {rep.violations} violations",
            rep.instances >= 200 and rep.violations == 0, elapsed, 30.0)


def test_criterion_03_bandwidth_derivative_inequalities():
    t0 = time.perf_counter()
    rep = vf.floquet_identity_suite(count=100, q_max=8, seed=3,
                                    checks=("last",), samples_per_model=32)
    elapsed = time.perf_counter() - t0
    _report(3, f"two-sided bandwidth-derivative inequality chain "
               f"(constants 1+sqrt5, e, 4e) on {rep.instances} rows, "
               f"{rep.violations} violations",
            rep.instances >= 3200 and rep.violations == 0, elapsed, 60.0)


def test_criterion_04_three_route_probability_agreement():
    t0 = time.perf_counter()
    models = [periodic_model(AmoSampling(1.0), Fraction(1, q), 0.17)
              for q in range(2, 11)]
    rep = vf.transport_consistency_suite(models=models,
                                         time_scales=(5.0, 20.0, 50.0),
                                         checks=("routes",), max_site=60,
                                         route_rel_tol=1e-3)
    elapsed = time.perf_counter() - t0
    _report(4, f"time vs resolvent vs fiber-kernel probabilities on "
               f"{rep.instances} (q, T, n) points, {rep.violations} "
               f"disagreements beyond 1e-3",
            rep.instances >= 600 and rep.violations == 0, elapsed, 40.0)


def test_criterion_05_conservation_and_normalization():
    t0 = time.perf_counter()
    weights = vf.floquet_identity_suite(count=40, q_max=10, seed=5,
                                        checks=("weights",))
    assert weights.config_snapshot["constants"]["WEIGHT_TOL"] == 1e-10
    unitarity = vf.transport_consistency_suite(checks=("unitarity",))
    det_worst = 0.0
    for chain, e in ((Chain(AmoSampling(1.5), GOLDEN, 0.3), 0.5),
                     (Chain(ZeroSampling(), GOLDEN, 0.0), 1.2)):
        tp = transfer_product(chain, e, 0, 99_999)
        det_worst = max(det_worst,
                        abs(tp.det_sign * math.exp(tp.det_log) - 1.0))
    elapsed = time.perf_counter() - t0
    ok = (weights.violations == 0 and unitarity.violations == 0
          and det_worst < 1e-10)
    _report(5, f"weight sums to 2 within 1e-10 ({weights.instances} rows), "
               f"evolution unitarity within 1e-8 "
               f"({unitarity.instances} rows), cocycle det drift "
               f"{det_worst:.2e} at length 1e5",
            ok, elapsed, None)


def test_criterion_06_four_block_lower_bound():
    t0 = time.perf_counter()
    rng = np.random.default_rng(6)
    worst = math.inf
    for _ in range(10_000):
        a, b, c = rng.uniform(-2.0, 2.0, 3)
        if abs(a) < 0.1:
            a = 0.1 if a >= 0 else -0.1
        block = np.array([[a, b], [c, (1.0 + b * c) / a]])
        ang = rng.uniform(0.0, 2.0 * math.pi)
        u = np.array([math.cos(ang), math.sin(ang)])
        worst = min(worst, gordon_block_statistic(block, u))
    elapsed = time.perf_counter() - t0
    _report(6, f"max over four block images >= 1/2 on 10000 random "
               f"unimodular pairs, worst {worst:.6f}",
            worst >= 0.5 - 1e-12, elapsed, 5.0)


def test_criterion_07_growth_rate_oracles():
    t0 = time.perf_counter()
    free = lyapunov_exponent(ZeroSampling(), GOLDEN, 3.0, n_steps=4000,
                             theta_count=20)
    oracle = math.log((3.0 + math.sqrt(5.0)) / 2.0)
    free_rel = abs(free.gamma_hat / oracle - 1.0)

    bs = band_structure(periodic_model(AmoSampling(2.0), Fraction(34, 55),
                                       0.0))
    centers = [bs.band(j).center for j in (10, 20, 28, 40, 50)]
    amo = min_lyapunov_on_spectrum(AmoSampling(2.0), GOLDEN, centers,
                                   n_steps=10_000, theta_count=50)
    amo_rel = abs(amo.gamma / math.log(2.0) - 1.0)
    elapsed = time.perf_counter() - t0
    _report(7, f"zero potential at E=3: rel err {free_rel:.2e} vs "
               f"log((3+sqrt5)/2); cosine coupling 2 on-spectrum: rel err "
               f"{amo_rel:.2e} vs log 2",
            free_rel < 0.01 and amo_rel < 0.05, elapsed, 120.0)


def test_criterion_08_free_lattice_bessel_oracle():
    t0 = time.perf_counter()
    op = finite_operator(Chain(ZeroSampling(), GOLDEN, 0.0), 200)
    times = np.linspace(0.0, 10.0, 21)
    ns = np.arange(-20, 21)
    amp = evolve(op, times, 0, ns)
    worst = float(np.max(np.abs(np.abs(amp)
                                - np.abs(jv(ns, 2.0 * times[:, None])))))
    elapsed = time.perf_counter() - t0
    _report(8, f"|amplitude| vs Bessel magnitude |J_n(2t)|, |n|<=20, "
               f"t<=10, radius 200: worst abs err {worst:.2e}",
            worst < 1e-6, elapsed, 30.0)


def test_criterion_09_resolvent_and_ballistic_envelopes():
    t0 = time.perf_counter()
    rep = vf.transport_consistency_suite(checks=("ct", "ballistic",
                                                 "moments"))
    elapsed = time.perf_counter() - t0
    _report(9, f"off-spectrum resolvent decay, light-cone tails, and "
               f"moment closed forms and envelopes on {rep.instances} rows, "
               f"{rep.violations} violations",
            rep.instances >= 25 and rep.violations == 0, elapsed, None)


def test_criterion_10_frozen_lower_bound_constants():
    t0 = time.perf_counter()
    assert (frozen.LOWER_C, frozen.LOWER_C1, frozen.LOWER_CAP) == \
        (3.0, 3.0, 1e-8)
    cfg = EvolutionConfig(energy_rel_tol=1e-3)
    details = []
    ok = True
    for p, q, t_mult in ((2, 3, 12.0), (3, 5, 12.0), (5, 8, 1.3),
                         (8, 13, 1.3)):
        model = periodic_model(AmoSampling(1.5), Fraction(p, q), 0.1)
        bs = band_structure(model)
        interval = (bs.bands[0].lo - 0.1, bs.bands[-1].hi + 0.1)
        ell = max(b.width for b in bs.bands)
        eta, _ = measure_kappa_infimum(model, interval)
        t_use = t_mult * vf.minimal_admissible_time(q, eta, ell)
        scan = vf.lower_bound_scan(model, interval, t_use, config=cfg,
                                   max_points=64)
        frac = scan.fraction_satisfied
        ok = ok and frac >= 0.9
        details.append(f"q={q}: {frac:.2f} of window "
                       f"{scan.window} at T={t_use:.3g}")
    elapsed = time.perf_counter() - t0
    _report(10, "probability lower bound with frozen (3.0, 3.0, 1e-8) "
                "out of sample; " + "; ".join(details), ok, elapsed, 60.0)


def test_criterion_11_bandwidth_exponent_trend():
    t0 = time.perf_counter()
    freq = continued_fraction_expansion(GOLDEN, max_terms=12)
    rep = vf.bandwidth_proposition_check(AmoSampling(2.0), freq, [6, 7, 8],
                                         epsilon=0.2)
    minima = [r["min_value"] for r in rep.artifacts
              if r["check"] == "minimum"]
    nondecreasing = rep.config_snapshot["trend"] == "nondecreasing"
    elapsed = time.perf_counter() - t0
    _report(11, f"min_j(log(width_j)/q + gamma_hat) at q=13,21,34: "
                f"{[round(m, 4) for m in minima]}, all >= -0.2, trend "
                f"{rep.config_snapshot['trend']}",
            rep.violations == 0 and nondecreasing and
            all(m >= -0.2 for m in minima), elapsed, 600.0)


def test_criterion_12_subsequence_transport_demo():
    t0 = time.perf_counter()
    rep = vf.theorem_demo(AmoSampling(1.05), 0.45, theta_grid=64)
    elapsed = time.perf_counter() - t0
    assert rep.threshold <= 2.0 + 1e-9
    feasible = rep.feasible_points
    infeasible = [p for p in rep.points if not p.feasible]
    ok = len(feasible) >= 1 and len(infeasible) >= 1
    first = feasible[0] if feasible else None
    if first is not None:
        for p in (1.0, 2.0):
            floor = 0.01 * first.time_scale ** ((1.0 - 0.45) * p)
            ok = ok and first.min_moments[p] > floor
    ok = ok and all(p.note for p in infeasible)
    mins = {f"p={p:g}": round(first.min_moments[p], 4)
            for p in (1.0, 2.0)} if first else {}
    _report(12, f"demo with constructed beta=2 frequency: threshold "
                f"{rep.threshold:.3g}, beta_hat {rep.beta_hat:.4g}, phase-"
                f"grid minima at T1={first.time_scale:.3g} {mins} beat "
                f"0.01*T^((1-delta)p); deeper scales infeasible with "
                f"diagnostics ({infeasible[0].note if infeasible else ''})",
            ok, elapsed, 1800.0)
