"""Command-line front end: subcommands over the package's computations,
INI configuration with flag overrides, CSV/JSON artifacts, and run
manifests that make every invocation reproducible.

Each subcommand's parameters are declared once, in COMMANDS.  Layering
for every parameter: command-line flag > config-file entry > built-in
default.  The output directory additionally honors the QPT_OUT
environment variable (flag > QPT_OUT > config > default).  Each run
writes a manifest.json capturing the fully resolved configuration,
library and BLAS versions, BLAS threads and timings; a run that fails
with any error other than a usage error records the error there.
`qpt --from-manifest m.json` re-executes that configuration and
regenerates the data artifacts byte-for-byte under the same BLAS builds
and thread count.

Exit codes: 0 success, 1 numerical or module-level failure (and verify
runs that found violations, and sweeps with failed points), 2 usage.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import dataclasses
import functools
import itertools
import json
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import scipy

from . import __version__
from .arithmetic import (Frequency, construct_liouville_frequency,
                         continued_fraction_expansion)
from .errors import QptError, check_memory
from .floquet import band_structure, discriminant, measure_uniform_lower_bound
from .operator import (AmoSampling, Chain, TableSampling, ZeroSampling,
                       periodic_model)
from .transfer import lyapunov_exponent
from .transport import moments, probability_distribution, truncation_radius
from .verify import (CHECKS, ENSEMBLE_Q_MIN, floquet_identity_suite,
                     suite_checks, theorem_demo, transport_consistency_suite)

MANIFEST_SCHEMA = "qpt-manifest/1"
OUT_ENV_VAR = "QPT_OUT"
DEFAULT_OUT = "qpt-out"


class UsageError(Exception):
    """Bad command line or config: reported on stderr, exit code 2."""


# ---------------------------------------------------------------------------
# serialization helpers

def to_jsonable(obj):
    """Recursively convert dataclasses, numpy types, Fractions, and
    containers into plain JSON-serializable values."""
    if obj is None or isinstance(obj, (bool, int, str, float)):
        return obj
    if isinstance(obj, Fraction):
        return f"{obj.numerator}/{obj.denominator}"
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if isinstance(obj, np.generic):
        return to_jsonable(obj.item())
    if isinstance(obj, np.ndarray):
        return [to_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, Frequency):
        return obj.to_json_dict()
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: to_jsonable(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        seq = sorted(obj, key=repr) if isinstance(obj, (set, frozenset)) else obj
        return [to_jsonable(v) for v in seq]
    return repr(obj)


def _fmt_cell(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return "%.17g" % float(x)
    if x is None:
        return ""
    return str(x)


def write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt_cell(x) for x in row])


def write_json(path: Path, obj) -> None:
    # the text is whole before the file opens: a value that cannot be
    # written leaves no truncated file
    text = json.dumps(to_jsonable(obj), indent=2, sort_keys=True)
    path.write_text(text + "\n")


# ---------------------------------------------------------------------------
# spec parsing: sampling functions, frequencies, grids

def parse_freq_spec(text: str) -> dict:
    """'p/q' -> rational, 'liouville:beta=2,q1=2,depth=3' -> constructed,
    anything float-parseable -> value."""
    text = text.strip()
    if text.startswith("liouville:"):
        return _parse_liouville_fields(text[len("liouville:"):])
    if "/" in text:
        num_s, _, den_s = text.partition("/")
        try:
            num, den = int(num_s), int(den_s)
        except ValueError:
            raise UsageError(f"bad rational frequency {text!r}") from None
        if den <= 0 or not 0 < num < den:
            raise UsageError(f"rational frequency must be in (0, 1): {text!r}")
        return {"kind": "rational", "num": num, "den": den}
    try:
        value = float(text)
    except ValueError:
        raise UsageError(f"cannot parse frequency spec {text!r}") from None
    return {"kind": "value", "value": value, "max_terms": 32}


def _parse_liouville_fields(text: str) -> dict:
    fields = {}
    for part in text.split(","):
        key, sep, val = part.partition("=")
        if not sep:
            raise UsageError(f"bad liouville field {part!r} (want key=value)")
        fields[key.strip()] = val.strip()
    unknown = set(fields) - {"beta", "q1", "depth"}
    if unknown:
        raise UsageError(f"unknown liouville fields {sorted(unknown)}")
    try:
        return {"kind": "liouville", "beta": float(fields["beta"]),
                "q1": int(fields["q1"]), "depth": int(fields["depth"])}
    except (KeyError, ValueError) as exc:
        raise UsageError(f"liouville spec needs beta=, q1=, depth=: {exc}") \
            from None


def build_frequency(spec: dict) -> Frequency:
    kind = spec["kind"]
    if kind == "rational":
        return continued_fraction_expansion(Fraction(spec["num"], spec["den"]))
    if kind == "value":
        return continued_fraction_expansion(spec["value"],
                                            max_terms=spec.get("max_terms", 32))
    if kind == "liouville":
        return construct_liouville_frequency(spec["beta"], spec["q1"],
                                             spec["depth"])
    raise UsageError(f"unknown frequency kind {kind!r}")


def chain_alpha(spec: dict):
    """The alpha a Chain should carry: exact Fraction when available."""
    if spec["kind"] == "rational":
        return Fraction(spec["num"], spec["den"])
    if spec["kind"] == "value":
        return float(spec["value"])
    return build_frequency(spec).value


def rational_alpha(spec: dict) -> Fraction:
    if spec["kind"] != "rational":
        raise UsageError("this command needs a rational frequency p/q "
                         "(pass a convergent explicitly)")
    return Fraction(spec["num"], spec["den"])


def build_sampling(cfg: dict):
    kind = cfg["sampling"]
    if kind == "amo":
        return AmoSampling(cfg["lam"])
    if kind == "zero":
        return ZeroSampling()
    if kind == "table":
        values = cfg["potential"]
        if not values:
            raise UsageError("table sampling needs --potential v1,v2,...")
        return TableSampling(values)
    raise UsageError(f"unknown sampling kind {kind!r}")


#: bytes a sweep holds per point (its dict, task, result and rows), about
#: 1.2 KiB measured with tracemalloc, rounded up
_SWEEP_POINT_BYTES = 2048


def parse_axis(text: str, name: str, integer: bool = False):
    """Grid axis: 'a,b,c' list, 'lin:lo:hi:n' linspace, 'grid:n' n points
    equispaced on [0, 1).  Values must be finite.  A grid or lin axis is
    refused before it is built when its points alone, at _SWEEP_POINT_BYTES
    each, would not fit in physical memory."""
    text = text.strip()
    kind, *parts = text.split(":")
    if kind in ("grid", "lin"):
        try:
            if len(parts) != (1 if kind == "grid" else 3):
                raise ValueError
            n = int(parts[-1])
            ends = [_finite(x) for x in parts[:-1]]
        except ValueError:
            raise UsageError(f"bad {kind} axis {text!r} (want grid:n or "
                             "lin:lo:hi:n with finite lo, hi)") from None
        if n < 1:
            raise UsageError(f"axis {name}: {kind} size must be >= 1")
        check_memory(_SWEEP_POINT_BYTES * n,
                     f"a sweep axis {name} of {n} points")
        if kind == "grid":
            return [i / n for i in range(n)]
        vals = np.linspace(*ends, n)
        return [int(v) for v in vals] if integer else [float(v) for v in vals]
    try:
        return _csv_of(int if integer else _finite, 1)(text)
    except ValueError as exc:
        raise UsageError(f"axis {name}: {exc}") from None


# ---------------------------------------------------------------------------
# command runners: cfg dict -> (exit_code, summary, artifact names, extra)

def _run_freq(cfg: dict, out: Path):
    if cfg["freq"] is None:
        raise UsageError("freq needs a spec: p/q, a float, or "
                         "liouville:beta=B,q1=Q,depth=D")
    freq = build_frequency(cfg["freq"])
    doc = freq.to_json_dict()
    write_json(out / "freq.json", doc)
    beta = doc["beta_hat"]
    beta_s = "n/a" if beta is None else f"{beta:.6g}"
    summary = (f"freq value={freq.value.numerator}/{freq.value.denominator} "
               f"depth={freq.depth} beta_hat={beta_s}")
    return 0, summary, ["freq.json"], {}


def _run_bands(cfg: dict, out: Path):
    f = build_sampling(cfg)
    alpha = rational_alpha(cfg["freq"])
    model = periodic_model(f, alpha, cfg["theta"])
    bs = band_structure(model)
    rows = [(b.j, b.lo, b.hi, b.width, b.center) for b in bs.bands]
    write_csv(out / "bands.csv", ("j", "lo", "hi", "width", "center"), rows)
    widths = bs.widths
    summary = (f"bands q={bs.q} span=[{bs.bands[0].lo:.6g}, "
               f"{bs.bands[-1].hi:.6g}] min_width={widths.min():.6g}")
    return 0, summary, ["bands.csv"], {"q": bs.q}


def _run_discriminant(cfg: dict, out: Path):
    f = build_sampling(cfg)
    alpha = rational_alpha(cfg["freq"])
    model = periodic_model(f, alpha, cfg["theta"])
    # the energies, the cocycle's per-site energies and states, and the
    # rows' two lists of floats
    check_memory(8 * cfg["count"] * (2 * model.q + 16),
                 f"a discriminant on {cfg['count']} energies")
    lo, hi = cfg["e_min"], cfg["e_max"]
    if lo is None or hi is None:
        bs = band_structure(model)
        pad = 0.5
        lo = bs.bands[0].lo - pad if lo is None else lo
        hi = bs.bands[-1].hi + pad if hi is None else hi
    energies = np.linspace(lo, hi, cfg["count"])
    rows = zip(energies.tolist(), discriminant(model, energies).tolist())
    write_csv(out / "discriminant.csv", ("energy", "discriminant"), rows)
    summary = (f"discriminant q={model.q} on [{lo:.6g}, {hi:.6g}] "
               f"({cfg['count']} points)")
    return 0, summary, ["discriminant.csv"], {}


def _run_measure(cfg: dict, out: Path):
    f = build_sampling(cfg)
    alpha = rational_alpha(cfg["freq"])
    interval = (cfg["e_min"], cfg["e_max"])
    if interval[0] is None or interval[1] is None:
        raise UsageError("measure needs --e-min and --e-max")
    if not interval[0] <= interval[1]:
        raise UsageError(f"measure needs e_min <= e_max, got {interval}")
    res = measure_uniform_lower_bound(f, alpha, interval,
                                      theta_grid=cfg["theta_grid"],
                                      kappa_grid=cfg["kappa_grid"])
    write_json(out / "measure.json", res)
    summary = (f"measure eta={res.eta:.6g} over theta_grid={res.theta_count} "
               f"kappa_grid={res.kappa_count} "
               f"argmin=(theta {res.theta_argmin:.6g}, "
               f"kappa {res.kappa_argmin:.6g})")
    return 0, summary, ["measure.json"], {"eta": res.eta}


def _lyapunov_rows(cfg: dict) -> list:
    f = build_sampling(cfg)
    alpha = chain_alpha(cfg["freq"])
    if cfg["energies"]:
        energies = cfg["energies"]
    else:
        if cfg["e_min"] is None or cfg["e_max"] is None:
            raise UsageError("lyapunov needs --energies or --e-min/--e-max")
        energies = [float(e) for e in
                    np.linspace(cfg["e_min"], cfg["e_max"], cfg["e_count"])]
    est = lyapunov_exponent(f, alpha, energies, n_steps=cfg["n_steps"],
                            theta_count=cfg["theta_count"],
                            theta_mode=cfg["theta_mode"], seed=cfg["seed"])
    return list(zip(energies, est.gamma_hat.tolist(), est.stderr.tolist()))


def _run_lyapunov(cfg: dict, out: Path):
    rows = _lyapunov_rows(cfg)
    write_csv(out / "lyapunov.csv", ("energy", "gamma_hat", "stderr"), rows)
    gmin = min(r[1] for r in rows)
    summary = (f"lyapunov {len(rows)} energies, min gamma_hat={gmin:.6g} "
               f"(n_steps={cfg['n_steps']}, theta_count={cfg['theta_count']})")
    return 0, summary, ["lyapunov.csv"], {"min_gamma": gmin}


def _run_transport(cfg: dict, out: Path):
    f = build_sampling(cfg)
    chain = Chain(f, chain_alpha(cfg["freq"]), cfg["theta"])
    dist = probability_distribution(chain, cfg["time_scale"],
                                    radius=cfg["radius"])
    n_max = cfg["max_site"]
    mask = np.abs(dist.displacements) <= n_max
    rows = list(zip(dist.displacements[mask].tolist(),
                    dist.probabilities[mask].tolist()))
    write_csv(out / "transport.csv", ("displacement", "probability"), rows)
    summary = (f"transport T={cfg['time_scale']:.6g} radius={dist.radius} "
               f"total_mass={dist.total_mass:.9g} "
               f"window |n|<={n_max} ({len(rows)} rows)")
    return 0, summary, ["transport.csv"], {"total_mass": dist.total_mass}


def _moments(cfg: dict):
    chain = Chain(build_sampling(cfg), chain_alpha(cfg["freq"]), cfg["theta"])
    return moments(chain, cfg["time_scale"], orders=cfg["orders"],
                   radius=cfg["radius"])


def _run_moments(cfg: dict, out: Path):
    t = cfg["time_scale"]
    # moments.csv divides M_p by T^p: an order whose T^p overflows or
    # underflows is a usage error once T has a finite lattice (else InputError)
    truncation_radius(t)
    for p in cfg["orders"]:
        try:
            fits = not 0 < p < math.inf or t ** p > 0
        except OverflowError:
            fits = False
        if not fits:
            raise UsageError(f"order {p:g}: T^p = {t:g}^{p:g} leaves the "
                             "float range")
    mom = _moments(cfg)
    rows = [(p, v, v / t ** p if p > 0 else v)
            for p, v in zip(mom.orders, mom.values)]
    write_csv(out / "moments.csv", ("order", "moment", "moment_over_Tp"), rows)
    parts = " ".join(f"M_{p:g}={v:.6g}" for p, v in zip(mom.orders, mom.values))
    return 0, f"moments T={t:.6g} {parts}", ["moments.csv"], \
        {"values": list(mom.values)}


#: the verification suites, in the order verify.CHECKS lists them
VERIFY_SUITES = tuple(dict.fromkeys(suite for suite, _ in CHECKS.values()))


def _run_verify(cfg: dict, out: Path):
    # pick each suite's checks before running any; under "all" a suite
    # none of whose checks was selected is skipped
    plan = []
    for name in VERIFY_SUITES:
        if cfg["suite"] in (name, "all"):
            known = suite_checks(name)
            chosen = tuple(c for c in (cfg["checks"] or known) if c in known)
            if chosen:
                plan.append((name, chosen))
            elif cfg["suite"] == name:
                raise UsageError(f"no {name} checks selected")
    artifacts, summaries, results = [], [], {}
    total_violations = 0
    for name, chosen in plan:
        if name == "floquet":
            rep = floquet_identity_suite(
                count=cfg["trials"], q_max=cfg["q_max"], seed=cfg["seed"],
                checks=chosen, samples_per_model=cfg["samples_per_model"],
                corrupt_corner=cfg["corrupt"])
        else:
            rep = transport_consistency_suite(
                time_scales=tuple(cfg["time_scales"]), checks=chosen,
                max_site=cfg["max_site"])
        fname = f"verify_{name}.csv"
        keys = sorted({k for row in rep.artifacts for k in row})
        write_csv(out / fname, keys,
                  [[row.get(k) for k in keys] for row in rep.artifacts])
        artifacts.append(fname)
        results[name] = {"instances": rep.instances,
                         "violations": rep.violations,
                         "worst_margin": rep.worst_margin,
                         "config": rep.config_snapshot}
        total_violations += rep.violations
        summaries.append(f"{name}: {rep.violations} violations "
                         f"/ {rep.instances} instances")
    write_json(out / "verify.json", results)
    artifacts.append("verify.json")
    code = 0 if total_violations == 0 else 1
    return code, "verify " + "; ".join(summaries), artifacts, results


def _run_theorem_demo(cfg: dict, out: Path):
    f = build_sampling(cfg)
    rep = theorem_demo(f, cfg["delta"], depth_budget=cfg["depth_budget"],
                       p_list=tuple(cfg["p_list"]),
                       theta_grid=cfg["theta_grid"],
                       beta_target=cfg["beta_target"],
                       max_radius=cfg["max_radius"])
    write_json(out / "theorem_demo.json", rep)
    # the report's orders, named by their JSON keys' text: integer orders
    # read "1", and distinct orders get distinct columns
    p_list = rep.config_snapshot["p_list"]
    header = ["k", "q", "time_scale", "feasible", "note"]
    for p in p_list:
        header += [f"min_p{p}", f"ratio_plain_p{p}", f"ratio_log_p{p}"]
    rows = []
    for pt in rep.points:
        row = [pt.k, pt.q, pt.time_scale, pt.feasible, pt.note or ""]
        for p in p_list:
            if pt.feasible:
                row += [pt.min_moments[p], pt.ratio_plain[p],
                        pt.ratio_log[p]]
            else:
                row += [None, None, None]
        rows.append(row)
    write_csv(out / "theorem_points.csv", header, rows)
    feas = len(rep.feasible_points)
    summary = (f"theorem-demo gamma0={rep.gamma0:.6g} "
               f"threshold={rep.threshold:.6g} beta_hat={rep.beta_hat:.6g} "
               f"points={len(rep.points)} feasible={feas}")
    return 0, summary, ["theorem_demo.json", "theorem_points.csv"], \
        {"feasible": feas}


# ---------------------------------------------------------------------------
# sweep

#: sweep axis -> the config key (flag, INI key) that gives its grid
SWEEP_AXES = {"lam": "lambdas", "theta": "thetas", "energy": "energies",
              "time": "times", "depth": "depths"}
#: point command -> the axes its point reads
POINT_AXES = {"moments": ("lam", "theta", "time", "depth"),
              "lyapunov": ("lam", "energy", "depth")}


def _point_config(cfg: dict, point: dict) -> dict:
    """The point command's config at one grid point: each axis replaces
    the config key it varies, and a lyapunov point off an energy axis
    sits at E = 0."""
    sub = {**cfg, "lam": point.get("lam", cfg["lam"]),
           "theta": point.get("theta", cfg["theta"]),
           "time_scale": point.get("time", cfg["time_scale"]),
           "energies": [point.get("energy", 0.0)]}
    if "depth" in point:
        spec = dict(cfg["freq"])
        if spec["kind"] == "liouville":
            spec["depth"] = point["depth"]
        else:
            freq = build_frequency(spec)
            conv = freq.convergent(min(point["depth"], freq.depth))
            spec = {"kind": "rational", "num": conv.numerator,
                    "den": conv.denominator}
        sub["freq"] = spec
    return sub


def _failed_point(task: dict, exc: BaseException) -> dict:
    return {"index": task["index"], "ok": False,
            "error": f"{type(exc).__name__}: {exc}"}


def _sweep_eval(task: dict) -> dict:
    """One grid point, executed in a worker process."""
    try:
        cfg = _point_config(task["cfg"], task["point"])
        if cfg["point_command"] == "moments":
            mom = _moments(cfg)
            values = {f"m_{p:g}": v for p, v in zip(mom.orders, mom.values)}
        else:
            (_, gamma, stderr), = _lyapunov_rows(cfg)
            values = {"gamma_hat": gamma, "stderr": stderr}
        return {"index": task["index"], "ok": True, "values": values}
    except Exception as exc:
        return _failed_point(task, exc)


def _pooled_result(future, task: dict, alone: bool = False) -> dict:
    """A pooled point's result.  A worker that dies breaks its pool and
    loses every point not yet collected; each lost point is rerun in a
    one-worker pool of its own, so only a point that kills its own
    worker is recorded as failed."""
    try:
        return future.result()
    except BrokenProcessPool as exc:
        if alone:
            return _failed_point(task, exc)
        with ProcessPoolExecutor(max_workers=1) as pool:
            return _pooled_result(pool.submit(_sweep_eval, task), task, True)


def _run_sweep(cfg: dict, out: Path):
    command = cfg["point_command"]
    readable = POINT_AXES[command]
    flags = "/".join(f"--{SWEEP_AXES[a]}" for a in readable)
    axes = [(a, cfg[key]) for a, key in SWEEP_AXES.items()
            if cfg[key] is not None]
    ignored = [f"--{SWEEP_AXES[a]}" for a, _ in axes if a not in readable]
    if ignored:
        raise UsageError(f"sweep --command {command} reads only "
                         f"{flags}, not {'/'.join(ignored)}")
    if not axes:
        raise UsageError(f"sweep needs at least one grid axis ({flags})")
    axis_names = [name for name, _ in axes]
    count = math.prod(len(vals) for _, vals in axes)
    check_memory(_SWEEP_POINT_BYTES * count, f"a sweep of {count} points")
    points = [dict(zip(axis_names, combo))
              for combo in itertools.product(*(vals for _, vals in axes))]
    tasks = [{"index": i, "cfg": cfg, "point": pt}
             for i, pt in enumerate(points)]

    jobs = cfg["jobs"]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [pool.submit(_sweep_eval, t) for t in tasks]
            results = [_pooled_result(f, t) for f, t in zip(futures, tasks)]
    else:
        results = [_sweep_eval(t) for t in tasks]

    value_keys = sorted({k for r in results if r["ok"] for k in r["values"]})

    # a min-over-theta column per value when a theta axis is present: the
    # minimum within the group of rows sharing every other axis coordinate
    def group(pt):
        return tuple(pt[a] for a in axis_names if a != "theta")

    by_theta = "theta" in axis_names and value_keys
    min_cols = [f"min_theta_{k}" for k in value_keys] if by_theta else []
    minima = {}
    for pt, res in zip(points, results):
        if by_theta and res["ok"]:
            cur = minima.setdefault(group(pt), {})
            for k, v in res["values"].items():
                cur[k] = min(cur.get(k, v), v)

    # one CSV per point, the index, and the aggregated CSV
    header = axis_names + value_keys
    index_rows, point_files, agg_rows = [], [], []
    for pt, res in zip(points, results):
        entry = {"index": res["index"], "params": pt, "ok": res["ok"]}
        row = [pt[a] for a in axis_names]
        if res["ok"]:
            row += [res["values"][k] for k in value_keys]
            entry["file"] = f"point_{res['index']:05d}.csv"
            write_csv(out / entry["file"], header, [row])
            point_files.append(entry["file"])
        else:
            row += [math.nan] * len(value_keys)
            entry["error"] = res["error"]
        index_rows.append(entry)
        if min_cols:
            row += [minima.get(group(pt), {}).get(k, math.nan)
                    for k in value_keys]
        agg_rows.append(row + [res["ok"]])
    write_csv(out / "sweep.csv", header + min_cols + ["ok"], agg_rows)

    failed = sum(1 for r in results if not r["ok"])
    write_json(out / "sweep_index.json",
               {"command": command, "axes": dict(axes),
                "points": index_rows, "failed": failed})
    artifacts = ["sweep.csv", "sweep_index.json"] + point_files
    summary = (f"sweep {command} over {'x'.join(axis_names)} "
               f"({len(points)} points, {failed} failed, jobs={jobs})")
    return (1 if failed else 0), summary, artifacts, {"failed": failed}


# ---------------------------------------------------------------------------
# the parameter table: each subcommand's flags, INI keys, defaults and checks

def _float_between(low: float, high: float, low_ok: bool = False
                   ) -> Callable:
    """The cast of a float parameter whose library limits are the open
    interval (low, high), or [low, high) with low_ok: NaN and the
    infinities are refused."""
    def cast(text: str) -> float:
        value = float(text)
        if not (low < value < high or low_ok and value == low):
            raise ValueError(f"{value} is outside {'[' if low_ok else '('}"
                             f"{low:g}, {high:g})")
        return value
    return cast


_finite = _float_between(-math.inf, math.inf)
_positive = _float_between(0.0, math.inf)
_nonnegative = _float_between(0.0, math.inf, low_ok=True)


def _csv_of(cast: Callable, least: int = 0) -> Callable:
    """The cast of a comma-separated list of at least ``least`` entries,
    each through cast."""
    def cast_list(text: str):
        values = [cast(p) for p in text.split(",") if p.strip()]
        if len(values) < least:
            raise ValueError(f"need at least {least} value(s)")
        return values
    return cast_list


#: moment orders: one or more (the library checks each one's value)
_orders = _csv_of(float, 1)


def _int_at_least(low: int) -> Callable:
    """The cast of an integer parameter whose library lower limit is low."""
    def cast(text: str) -> int:
        value = int(text)
        if value < low:
            raise ValueError(f"{value} is below the lower limit {low}")
        return value
    return cast


_positive_int = _int_at_least(1)


def _truthy(text: str) -> bool:
    return text.strip().lower() in ("1", "true", "yes", "on")


def _check_names(text: str):
    names = [c.strip() for c in text.split(",") if c.strip()]
    unknown = [c for c in names if c not in CHECKS]
    if unknown:
        raise UsageError(f"unknown checks {unknown}")
    return names


class Param(NamedTuple):
    """One parameter of a subcommand.  ``name`` is its config key (as in
    manifest.json) and its INI key, where ``-`` may stand for ``_``.
    ``cast`` turns flag, INI and default text alike into the value, which
    must be one of ``choices`` if given.  ``flag`` overrides
    ``--name-with-dashes``; a bare word is positional.
    ``run`` reads the INI entry from [run], not the command's section."""
    name: str
    cast: Callable = str
    default: str | None = None
    help: str | None = None
    flag: str | None = None
    choices: tuple = ()
    run: bool = False


class Command(NamedTuple):
    help: str
    runner: Callable
    params: tuple


SEED = Param("seed", int, "0", "seed for randomized pieces", run=True)


def _lyapunov(theta_count: str):
    return (Param("n_steps", _positive_int, "10000"),
            Param("theta_count", _positive_int, theta_count),
            Param("theta_mode", str, "golden", choices=("golden", "random")),
            SEED)


SAMPLING = (Param("sampling", str, "amo", choices=("amo", "table", "zero")),
            Param("lam", _finite, "1.0", "cosine coupling for amo sampling",
                  flag="--lambda"),
            Param("potential", _csv_of(_finite), None,
                  "comma-separated table sampling values"))
FREQ = Param("freq", parse_freq_spec, "0.6180339887498949",
             "frequency: p/q, a float, or liouville:beta=B,q1=Q,depth=D")
PERIODIC_FREQ = FREQ._replace(default="8/13")
THETA = Param("theta", _finite, "0.0", "phase offset")
#: measure takes infinite endpoints; the energy grids need finite ones
E_RANGE = (Param("e_min", float), Param("e_max", float))
FINITE_E_RANGE = tuple(p._replace(cast=_finite) for p in E_RANGE)
TIME_SCALE = Param("time_scale", float, "20.0")
ORDERS = Param("orders", _orders, "1,2", "comma-separated moment orders")
RADIUS = Param("radius", _int_at_least(0))
MAX_SITE = Param("max_site", _int_at_least(0), "60")

COMMANDS = {
    "freq": Command(
        "continued-fraction data for a frequency", _run_freq,
        (FREQ._replace(default=None, flag="freq"),)),
    "bands": Command(
        "band structure of a periodic model", _run_bands,
        (*SAMPLING, PERIODIC_FREQ, THETA)),
    "discriminant": Command(
        "discriminant on an energy grid", _run_discriminant,
        (*SAMPLING, PERIODIC_FREQ, THETA, *FINITE_E_RANGE,
         Param("count", _positive_int, "512"))),
    "measure": Command(
        "uniform spectral-measure lower bound eta", _run_measure,
        (*SAMPLING, PERIODIC_FREQ, *E_RANGE, Param("theta_grid", _positive_int, "16"),
         Param("kappa_grid", _int_at_least(2), "64"))),
    "lyapunov": Command(
        "phase-averaged Lyapunov estimates", _run_lyapunov,
        (*SAMPLING, FREQ,
         Param("energies", _csv_of(_finite), None,
               "comma-separated energy list"),
         *FINITE_E_RANGE, Param("e_count", _positive_int, "17"),
         *_lyapunov("100"))),
    "transport": Command(
        "Abel-averaged site probabilities at one T", _run_transport,
        (*SAMPLING, FREQ, THETA, TIME_SCALE, RADIUS, MAX_SITE)),
    "moments": Command(
        "Abel-averaged position moments", _run_moments,
        (*SAMPLING, FREQ, THETA, TIME_SCALE, ORDERS, RADIUS)),
    "verify": Command(
        "identity and consistency suites", _run_verify,
        (Param("suite", str, "all", flag="suite",
               choices=(*VERIFY_SUITES, "all")),
         Param("trials", _positive_int, "20", "random models for floquet"),
         Param("q_max", _int_at_least(ENSEMBLE_Q_MIN), "8"),
         Param("samples_per_model", _int_at_least(0), "4"),
         SEED,
         Param("checks", _check_names, None, "comma-separated check subset"),
         Param("time_scales", _csv_of(_positive, 1), "5,20",
               "comma-separated T list (transport)"),
         MAX_SITE,
         Param("corrupt", _truthy, "false",
               "corrupt a matrix corner (self-test of the checks)"))),
    "theorem-demo": Command(
        "end-to-end subsequence transport demonstration", _run_theorem_demo,
        (*SAMPLING, Param("delta", _float_between(0.0, 0.5), "0.45"),
         Param("depth_budget", _int_at_least(2), "3"),
         Param("theta_grid", _positive_int, "64"),
         Param("p_list", _csv_of(_nonnegative, 1),
               "1,2", "comma-separated moment orders (finite, >= 0)"),
         Param("beta_target", _positive, "2.0"),
         Param("max_radius", int, "2500"))),
    "sweep": Command(
        "grid sweep of moments or lyapunov", _run_sweep,
        (*SAMPLING, FREQ, THETA,
         Param("point_command", str, "moments", flag="--command",
               choices=tuple(POINT_AXES)),
         *(Param(key, functools.partial(parse_axis, name=axis,
                                        integer=axis == "depth"),
                 None, f"{axis} axis: a,b,c or lin:lo:hi:n or grid:n")
           for axis, key in SWEEP_AXES.items()),
         TIME_SCALE, ORDERS, RADIUS, *_lyapunov("16"),
         Param("jobs", _positive_int, "1", "worker pool size", run=True))),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qpt",
        description="Transport and spectral diagnostics for one-dimensional "
                    "quasiperiodic Schrodinger operators.")
    parser.add_argument("--version", action="version",
                        version=f"qpt {__version__}")
    parser.add_argument("--from-manifest", metavar="PATH",
                        help="re-run the configuration stored in a manifest")
    parser.add_argument("--out", help="output directory (with --from-manifest)")
    subs = parser.add_subparsers(dest="command")
    for name, command in COMMANDS.items():
        # no prefix matching: a flag a command lacks must not reach another
        sub = subs.add_parser(name, help=command.help, allow_abbrev=False)
        sub.add_argument("--config", help="INI config file")
        sub.add_argument("--out", help="output directory")
        for p in command.params:
            flag = "--" + p.name.replace("_", "-") if p.flag is None \
                else p.flag
            kw = {"help": p.help, "choices": p.choices or None}
            if p.cast is _truthy:
                kw = {"help": p.help, "action": "store_const",
                      "const": "true"}
            if flag.startswith("--"):
                sub.add_argument(flag, dest=p.name, **kw)
            else:
                sub.add_argument(flag, nargs="?", **kw)
    return parser


def _load_ini(path: str | None) -> configparser.ConfigParser | None:
    if path is None:
        return None
    ini = configparser.ConfigParser()
    try:
        if not ini.read(path):
            raise UsageError(f"config file {path!r} not found or unreadable")
        for section in ini.sections():
            for key in ini.options(section):
                ini.get(section, key)  # interpolation errors surface here
    except (configparser.Error, OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"config file {path!r}: {exc}") from None
    return ini


def _load_manifest(path: str) -> argparse.Namespace:
    """The manifest's command and config as parsed flags, whose values
    take the checks a flag's text gets."""
    try:
        with open(path) as fh:
            manifest = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or encoding
        raise UsageError(f"manifest {path!r}: {exc}") from None
    if not (isinstance(manifest, dict)
            and manifest.get("schema") == MANIFEST_SCHEMA
            and manifest.get("command") in COMMANDS
            and isinstance(manifest.get("config"), dict)):
        raise UsageError(f"manifest {path!r} is not a {MANIFEST_SCHEMA} "
                         "manifest with a known command and its config")
    want = {p.name for p in COMMANDS[manifest["command"]].params} | {"out"}
    got = set(manifest["config"])
    if got != want:
        raise UsageError(f"manifest {path!r}: config lacks keys "
                         f"{sorted(want - got)}, has unknown keys "
                         f"{sorted(got - want)}")
    return argparse.Namespace(command=manifest["command"], **{
        k: _config_text(v) for k, v in manifest["config"].items()})


def _config_text(value):
    """The text whose Param cast gives back a manifest config value."""
    if isinstance(value, dict):  # a parsed frequency spec
        v = value.get
        if v("kind") == "rational":
            return f"{v('num')}/{v('den')}"
        if v("kind") == "liouville":
            return f"liouville:beta={v('beta')},q1={v('q1')},depth={v('depth')}"
        return str(v("value"))
    if isinstance(value, list):
        return ",".join(map(str, value))
    return None if value is None else str(value)


def _ini_text(ini, section: str, name: str):
    for key in (name, name.replace("_", "-")):
        if ini.has_option(section, key):
            return ini.get(section, key)
    return None


def _check_ini_keys(ini, command: str) -> None:
    """Reject keys of [run] or of the command's section that none of the
    command's parameters reads; other commands' sections are left alone."""
    params = COMMANDS[command].params
    run_keys = {"out"} | {p.name for p in params if p.run}
    own_keys = {p.name for p in params if not p.run}
    for section, names in (("run", run_keys), (command, own_keys)):
        names |= {n.replace("_", "-") for n in names}
        if ini.has_section(section):
            unknown = [k for k in ini.options(section) if k not in names]
            if unknown:
                raise UsageError(f"config [{section}]: unknown keys {unknown}")


def _resolve_out(args, ini) -> str:
    if getattr(args, "out", None):
        return args.out
    env = os.environ.get(OUT_ENV_VAR)
    if env:
        return env
    if ini is not None and ini.has_option("run", "out"):
        return ini.get("run", "out")
    return DEFAULT_OUT


def assemble_config(args, ini) -> dict:
    """Resolve each parameter of the chosen subcommand, flag > INI entry >
    default, into the config dict that manifest.json records."""
    command = COMMANDS[args.command]
    if ini is not None:
        _check_ini_keys(ini, args.command)
    cfg = {}
    for p in command.params:
        text = getattr(args, p.name, None)
        if text is None and ini is not None:
            text = _ini_text(ini, "run" if p.run else args.command, p.name)
        if text is None:
            text = p.default
        try:
            cfg[p.name] = None if text is None else p.cast(text)
        except (ValueError, TypeError) as exc:
            raise UsageError(f"{p.name} = {text!r}: {exc}") from None
        if p.choices and cfg[p.name] not in p.choices:
            raise UsageError(f"{p.name} = {text!r}: not one of "
                             f"{', '.join(p.choices)}")
    cfg["out"] = _resolve_out(args, ini)
    return cfg


# ---------------------------------------------------------------------------
# execution

def _blas(module) -> str | None:
    """Name and version of the BLAS a numpy or SciPy build links; None for
    builds that do not report it (numpy < 1.26 and SciPy < 1.11 take no
    `mode`)."""
    try:
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return None
    return f"{blas.get('name')} {blas.get('version')}"


def _manifest(command: str, cfg: dict, elapsed: float, **outcome) -> dict:
    """The manifest.json of one run: its config, the library builds and
    threads that ran it, its wall time, and outcome's entries."""
    return {
        "schema": MANIFEST_SCHEMA,
        "command": command,
        "config": cfg,
        "versions": {"python": ".".join(map(str, sys.version_info[:3])),
                     "numpy": np.__version__, "scipy": scipy.__version__,
                     "qptransport": __version__,
                     "numpy_blas": _blas(np), "scipy_blas": _blas(scipy)},
        # the BLAS builds (numpy and SciPy may bundle different ones) and
        # the thread count can change the last bits of eigensolves and
        # matrix products
        "threads": {**{v: os.environ.get(v) for v in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
            "cpu_count": os.cpu_count()},
        "timings": {"total_seconds": elapsed},
        **outcome,
    }


def execute(command: str, cfg: dict, out_dir: str | None = None) -> int:
    out = Path(out_dir if out_dir is not None else cfg["out"])
    created = [d for d in (out, *out.parents) if not d.exists()]
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"output directory {str(out)!r}: {exc}") from None
    # exact denominators (5,179 digits at liouville:beta=4,q1=2,depth=3)
    # pass Python's int <-> str digit limit; it is restored on return, for
    # callers that run main in-process
    digit_limit = sys.get_int_max_str_digits() \
        if hasattr(sys, "get_int_max_str_digits") else None
    if digit_limit is not None:
        sys.set_int_max_str_digits(0)
    t0 = time.perf_counter()
    try:
        code, summary, artifacts, extra = COMMANDS[command].runner(cfg, out)
        elapsed = time.perf_counter() - t0
        write_json(out / "manifest.json", _manifest(
            command, cfg, elapsed, status="ok", artifacts=artifacts,
            results=extra))
    except UsageError:
        for d in created:  # deepest first; one holding files stays
            if any(d.iterdir()):
                break
            d.rmdir()
        raise
    except Exception as exc:  # the failed run is recorded, then reported
        write_json(out / "manifest.json", _manifest(
            command, cfg, time.perf_counter() - t0, status="error",
            error={"type": type(exc).__name__, "message": str(exc)}))
        raise
    finally:
        if digit_limit is not None:
            sys.set_int_max_str_digits(digit_limit)
    print(f"{summary}  [{elapsed:.2f}s -> {out}]")
    return code


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.from_manifest:
            replay = _load_manifest(args.from_manifest)
            return execute(replay.command, assemble_config(replay, None),
                           out_dir=args.out)
        if not args.command:
            parser.print_usage(sys.stderr)
            print("qpt: error: a subcommand is required", file=sys.stderr)
            return 2
        ini = _load_ini(getattr(args, "config", None))
        cfg = assemble_config(args, ini)
        return execute(args.command, cfg)
    except UsageError as exc:
        print(f"qpt: usage error: {exc}", file=sys.stderr)
        return 2
    except QptError as exc:
        print(f"qpt: error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
