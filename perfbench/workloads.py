"""The four benchmark workloads: inputs drawn from a seed, the operations of
one pass, and the checks on their outputs.

Every operation looks its function up on the qptransport module at call
time (``verify.lower_bound_scan``, ``cli.main``), so the same pass runs
traced or untraced depending on whether the tracer has replaced those
bindings.  Each operation returns a payload that is compared byte for byte
between passes and handed to the workload's check.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import oracle

#: agreement asked of the resolvent and Floquet routes (criterion 4's)
ROUTE_TOL = 1e-3
#: lattice-truncation and Abel-tail tolerance of the time route
MASS_TOL = 1e-6

GOLDEN = "0.6180339887498949"


@dataclass
class Instance:
    """One workload's inputs, built once per process."""

    ops: list          # [(label, zero-argument callable -> payload)]
    check: object      # callable(payloads) -> list of problem strings
    description: dict  # what was drawn from the seed, for the run record


def _theta(rng: random.Random) -> float:
    return round(rng.random(), 6)


# ---------------------------------------------------------------------------
# floquet_scan

def floquet_scan(seed: int, qpt, out: Path) -> Instance:
    """``verify.lower_bound_scan`` on the q = 3 and q = 5 cosine approximants
    (lambda = 1.5, energy_rel_tol 1e-3, T = 12 x the minimal admissible time).

    q = 3 scans its full window at a phase drawn from the seed.  q = 5 scans
    the two window ends at criterion 10's phase 0.1: its kappa-grid
    convergence, and so its cost, jumps between 1,024 and 2,048 points with
    the phase, which would make the pass time a function of the seed.
    """
    operator, floquet, transport, verify = (qpt.operator, qpt.floquet,
                                            qpt.transport, qpt.verify)
    rng = random.Random(seed)
    cfg = transport.EvolutionConfig(energy_rel_tol=1e-3)
    specs = ((Fraction(2, 3), _theta(rng), 11), (Fraction(3, 5), 0.1, 2))
    scans = []
    for alpha, theta, max_points in specs:
        model = operator.periodic_model(operator.AmoSampling(1.5), alpha,
                                        theta)
        bs = floquet.band_structure(model)
        interval = (bs.bands[0].lo - 0.1, bs.bands[-1].hi + 0.1)
        ell = max(b.width for b in bs.bands)
        eta, _ = floquet.measure_kappa_infimum(model, interval)
        t_use = 12.0 * verify.minimal_admissible_time(model.q, eta, ell)
        scans.append((model, interval, t_use, max_points))

    def scan_op(model, interval, t_use, max_points):
        def run():
            return qpt.verify.lower_bound_scan(model, interval, t_use,
                                               config=cfg,
                                               max_points=max_points)
        return run

    ops = [(f"lower_bound_scan q={m.q}", scan_op(m, i, t, p))
           for m, i, t, p in scans]
    t_small = min(t for _, _, t, _ in scans)

    def check(payloads):
        problems = []
        for scan in payloads:
            if scan is None:
                continue
            # the frozen bound c eta^2 / (q^6 ell T), c = 3, recomputed here
            rhs = 3.0 * scan.eta ** 2 / (scan.q ** 6 * scan.band_width
                                         * scan.time_scale)
            held = sum(p >= rhs for _, p, _ in scan.pairs)
            if held < 0.9 * len(scan.pairs):
                problems.append(f"q={scan.q}: bound holds on {held} of "
                                f"{len(scan.pairs)} window points")
            bad = [p for _, p, _ in scan.pairs if not 0.0 < p <= 2.0]
            if bad or not scan.pairs:
                problems.append(f"q={scan.q}: probabilities outside (0, 2]: "
                                f"{bad or 'none measured'}")
        free = operator.PeriodicModel.from_potential([0.0, 0.0])
        for n in (0, 2):
            got = transport.abel_probability_floquet(free, n, t_small, cfg)
            want = oracle.free_probability(n, t_small)
            if abs(got / want - 1.0) > ROUTE_TOL:
                problems.append(f"free lattice Floquet P({n}; {t_small:.6g}) "
                                f"= {got!r}, closed form {want!r}")
        return problems

    return Instance(ops, check, {
        "instances": [{"q": m.q, "theta": m.theta, "time_scale": t,
                       "max_points": p} for m, _, t, p in scans]})


# ---------------------------------------------------------------------------
# route_agreement

def route_agreement(seed: int, qpt, out: Path) -> Instance:
    """The ``routes`` check of ``transport_consistency_suite``: the free
    period-2 lattice at T = 20 and 50 (closed-form oracle) and the cosine
    models alpha = 1/q, q in {2, 5, 10}, lambda = 1, at T = 20 with phases
    drawn from the seed; |nq| <= 10 in both calls."""
    operator, transport = qpt.operator, qpt.transport
    rng = random.Random(seed)
    free = operator.PeriodicModel.from_potential([0.0, 0.0])
    cosines = [operator.periodic_model(operator.AmoSampling(1.0),
                                       Fraction(1, q), _theta(rng))
               for q in (2, 5, 10)]
    calls = (([free], (20.0, 50.0)), (cosines, (20.0,)))
    max_site = 10

    def suite_op(models, time_scales):
        def run():
            return qpt.verify.transport_consistency_suite(
                models=models, time_scales=time_scales, checks=("routes",),
                max_site=max_site, route_rel_tol=ROUTE_TOL)
        return run

    ops = [(f"routes {len(m)} models T={ts}", suite_op(m, ts))
           for m, ts in calls]

    def check(payloads):
        problems = []
        for (models, time_scales), rep in zip(calls, payloads):
            if rep is None:
                continue
            rows = rep.rows("routes")
            if rep.violations or not rows:
                problems.append(f"{rep.violations} route disagreements "
                                f"beyond {ROUTE_TOL} in {len(rows)} rows")
            for model in models:
                for t_scale in time_scales:
                    n_max = max(1, max_site // model.q)
                    op = operator.finite_operator(
                        model, transport.truncation_radius(
                            t_scale, n_max * model.q + 1))
                    mass = transport.probability_distribution(
                        op, t_scale).total_mass
                    if abs(mass - 2.0) > MASS_TOL:
                        problems.append(f"time-route mass {mass!r} at "
                                        f"q={model.q} T={t_scale}")
            if models[0] is not free:
                continue
            for row in rows:
                want = oracle.free_probability(row["n"] * 2, row["time_scale"])
                for key, tol in (("p_time", MASS_TOL),
                                 ("p_resolvent", ROUTE_TOL),
                                 ("p_floquet", ROUTE_TOL)):
                    if abs(row[key] / want - 1.0) > tol:
                        problems.append(
                            f"free lattice {key} at n={row['n'] * 2} "
                            f"T={row['time_scale']}: {row[key]!r} vs "
                            f"closed form {want!r}")
        return problems

    return Instance(ops, check, {
        "instances": [{"q": m.q, "theta": m.theta} for m in cosines]})


# ---------------------------------------------------------------------------
# CLI workloads

def _cli_op(qpt, argv, out: Path, artifacts):
    def run():
        code = qpt.cli.main(argv + ["--out", str(out)])
        if code != 0:
            raise RuntimeError(f"qpt {argv[0]} exited {code}")
        return {name: (out / name).read_bytes() for name in artifacts}
    return run


def moments_large_t(seed: int, qpt, out: Path) -> Instance:
    """``qpt moments`` on the golden-mean critical cosine chain (lambda = 1)
    at T = 100, orders 1 and 2, phase drawn from the seed."""
    operator, transport, cli = qpt.operator, qpt.transport, qpt.cli
    rng = random.Random(seed)
    theta = _theta(rng)
    t_scale = 100.0
    argv = ["moments", "--lambda", "1", "--freq", GOLDEN, "--theta",
            repr(theta), "--time-scale", repr(t_scale), "--orders", "1,2"]
    ops = [("qpt moments", _cli_op(qpt, argv, out, ["moments.csv"]))]

    def check(payloads):
        if payloads[0] is None:
            return []
        problems = []
        rows = list(csv.DictReader(io.StringIO(
            payloads[0]["moments.csv"].decode())))
        got = {float(r["order"]): float(r["moment"]) for r in rows}
        alpha = cli.chain_alpha(cli.parse_freq_spec(GOLDEN))
        chain = operator.Chain(operator.AmoSampling(1.0), alpha, theta)
        ref = transport.moments(chain, t_scale, orders=(1, 2))
        dist = ref.distribution
        for p, value in zip(ref.orders, ref.values):
            if got.get(p) != value:
                problems.append(f"CLI M_{p:g} = {got.get(p)!r}, "
                                f"library {value!r}")
            envelope = 5.0 * math.factorial(int(p)) * (t_scale ** p + 1.0)
            if not 0.0 < value <= envelope:
                problems.append(f"M_{p:g} = {value!r} outside (0, {envelope}]")
        if abs(dist.total_mass - 2.0) > MASS_TOL:
            problems.append(f"total mass {dist.total_mass!r}")
        sites = [0, 10, 50]
        res = transport.abel_resolvent_profile(chain, sites, t_scale)
        for n, p_res in zip(sites, res):
            p_time = dist.probability(n)
            if abs(p_time - p_res) > ROUTE_TOL * max(p_time, p_res):
                problems.append(f"P({n}; {t_scale:g}) time {p_time!r} vs "
                                f"resolvent {p_res!r}")
        free = operator.Chain(operator.ZeroSampling(), alpha, 0.0)
        m2 = transport.moments(free, t_scale, orders=(2,)).moment(2)
        want = oracle.free_second_moment(t_scale)
        if abs(m2 / want - 1.0) > MASS_TOL:
            problems.append(f"free chain M_2({t_scale:g}) = {m2!r}, "
                            f"closed form {want!r}")
        return problems

    return Instance(ops, check, {"theta": theta, "time_scale": t_scale})


def _denominators(value: Fraction) -> list:
    """Continued-fraction denominators q_1, q_2, ... of a rational in
    (0, 1), in exact integer arithmetic."""
    qs, q_prev, q_cur = [], 0, 1
    x = value
    while x:
        x = 1 / x
        a = x.numerator // x.denominator
        x -= a
        q_prev, q_cur = q_cur, a * q_cur + q_prev
        qs.append(q_cur)
    return qs


def theorem_demo(seed: int, qpt, out: Path) -> Instance:
    """``qpt theorem-demo`` with lambda = 1.05, delta = 0.45 and a 64-phase
    grid (criterion 12).  The demo fixes its own phase grids, so the seed
    draws nothing here."""
    delta = 0.45
    argv = ["theorem-demo", "--lambda", "1.05", "--delta", repr(delta),
            "--theta-grid", "64"]
    ops = [("qpt theorem-demo", _cli_op(
        qpt, argv, out, ["theorem_demo.json", "theorem_points.csv"]))]

    def check(payloads):
        if payloads[0] is None:
            return []
        problems = []
        rep = json.loads(payloads[0]["theorem_demo.json"])
        threshold = rep["threshold"]
        if threshold > 2.0 + 1e-9:
            problems.append(f"threshold {threshold!r} above 2")
        feasible = [p for p in rep["points"] if p["feasible"]]
        infeasible = [p for p in rep["points"] if not p["feasible"]]
        if not feasible or not infeasible:
            problems.append(f"{len(feasible)} feasible and {len(infeasible)} "
                            "infeasible points; need at least one of each")
        if feasible:
            first = feasible[0]
            for p in (1, 2):
                floor = 0.01 * first["time_scale"] ** ((1.0 - delta) * p)
                if not first["min_moments"][str(p)] > floor:
                    problems.append(f"min M_{p} = "
                                    f"{first['min_moments'][str(p)]!r} at "
                                    f"T = {first['time_scale']!r} not above "
                                    f"{floor!r}")
        if any(not p["note"] for p in infeasible):
            problems.append("an infeasible point has no diagnostic note")
        freq = rep["frequency"]
        qs = _denominators(Fraction(freq["value_num"], freq["value_den"]))
        if qs != [q for _, q in freq["convergents"]]:
            problems.append(f"convergent denominators {freq['convergents']} "
                            f"differ from the exact expansion {qs}")
        sched = rep["schedule"]
        for m, den in zip(sched["indices"], sched["denominators"]):
            if m >= len(qs) or qs[m - 1] != den or \
                    not math.log(qs[m]) / qs[m - 1] > threshold:
                problems.append(f"scheduled convergent {m} (q = {den}) fails "
                                f"log q_(m+1)/q_m > {threshold!r} in exact "
                                "arithmetic")
        return problems

    return Instance(ops, check, {})


WORKLOADS = {
    "floquet_scan": floquet_scan,
    "route_agreement": route_agreement,
    "moments_large_t": moments_large_t,
    "theorem_demo": theorem_demo,
}
