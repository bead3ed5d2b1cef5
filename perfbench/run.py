"""Run one workload of the qptransport benchmark and print its result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the program is imported from
``src/`` there and nowhere else.  With ``--trace 0`` the workload's pass is
repeated back to back (one caller, closed loop) until ``--seconds`` have
passed, and the end-to-end metrics are printed.  With ``--trace 1`` untraced
and traced passes alternate, the per-layer metrics of the traced passes are
printed, and the spans of the last traced pass are written to
``perfbench/out/``.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import spans
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
#: set-up is timed this many times per run and reported as the median
SETUP_REPEATS = 3
MODULES = ("arithmetic", "floquet", "operator", "transport", "quadrature",
           "transfer", "verify", "cli")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true",
                        help="import the program, build the inputs, exit")
    return parser.parse_args(argv)


def import_program():
    """Import qptransport from this checkout's src/, or exit with code 1."""
    if not (SRC / "qptransport" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program at {SRC / 'qptransport'}; run from "
                 "the root of a qptransport source checkout")
    sys.path.insert(0, str(SRC))
    import importlib

    import scipy.linalg
    import qptransport
    if Path(qptransport.__file__).resolve().parent != \
            (SRC / "qptransport").resolve():
        sys.exit(f"perfbench: imported qptransport from "
                 f"{qptransport.__file__}, not from {SRC}")
    mods = {name: importlib.import_module(f"qptransport.{name}")
            for name in MODULES}
    return SimpleNamespace(**mods), {**mods, "scipy.linalg": scipy.linalg}


def build(args, qpt):
    out = OUT / "cli" / args.workload
    out.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[args.workload](args.seed, qpt, out)


def time_setup(args) -> float:
    """Median wall time of a fresh interpreter that imports the program and
    builds this workload's inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--trace", "0"]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_pass(instance):
    """One pass: every operation once.  A failing operation is recorded and
    the pass goes on."""
    payloads, errors = [], []
    for label, op in instance.ops:
        try:
            payloads.append(op())
        except Exception as exc:  # counted in "failed", reported below
            payloads.append(None)
            errors.append(f"{label}: {type(exc).__name__}: {exc}")
    return payloads, errors


def traced_pass(instance, modules):
    tracer = spans.Tracer().install(modules)
    try:
        with tracer.span("pass") as root:
            payloads, errors = run_pass(instance)
    finally:
        tracer.uninstall()
    return payloads, errors, root.duration, tracer


def main(argv=None) -> int:
    args = parse_args(argv)
    qpt, modules = import_program()
    if args.setup_only:
        build(args, qpt)
        return 0
    setup_s = time_setup(args)
    instance = build(args, qpt)

    walls = {False: [], True: []}
    layer_runs, tracer = [], None
    attempted = failed = 0
    errors, problems = [], []
    reference = None
    start = time.perf_counter()
    passes = 0
    while True:
        # the first pass warms up (lazy imports, allocator, BLAS threads)
        # and is not timed; traced runs then alternate traced and untraced
        traced = bool(args.trace) and passes % 2 == 1
        if traced:
            payloads, errs, wall, tracer = traced_pass(instance, modules)
            layer_runs.append(spans.layer_metrics(tracer))
        else:
            t0 = time.perf_counter()
            payloads, errs = run_pass(instance)
            wall = time.perf_counter() - t0
        if passes:
            walls[traced].append(wall)
        passes += 1
        attempted += len(instance.ops)
        failed += len(errs)
        errors.extend(errs)
        digest = repr(payloads)
        if reference is None:
            reference = (digest, payloads)
        elif digest != reference[0]:
            kind = "traced" if traced else "untraced"
            problems.append(f"pass {passes} ({kind}) returned other outputs "
                            "than the first pass")
        if time.perf_counter() - start >= args.seconds and walls[False] \
                and (walls[True] or not args.trace):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems.extend(instance.check(reference[1]))

    record = {"workload": args.workload, "seed": args.seed,
              "inputs": instance.description, "setup_s": setup_s,
              "pass_walls": walls[False], "traced_pass_walls": walls[True],
              "errors": errors, "problems": problems}
    if args.trace:
        wall_plain = statistics.median(walls[False])
        overhead = 100.0 * (statistics.median(walls[True]) - wall_plain) \
            / wall_plain
        metrics = {name: {"value": statistics.median(
            run[name] for run in layer_runs), "unit": unit}
            for name, unit in spans.LAYER_METRICS.items()}
        metrics["trace.overhead_pct"] = {"value": overhead, "unit": "%"}
        record["layers"] = layer_runs
        record["spans"] = tracer.to_json()
    else:
        metrics = {
            "wall_s": {"value": statistics.median(walls[False]), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "setup_s": {"value": setup_s, "unit": "s"},
        }
    OUT.mkdir(parents=True, exist_ok=True)
    name = f"{'trace' if args.trace else 'run'}-{args.workload}-{args.seed}"
    (OUT / f"{name}.json").write_text(json.dumps(record))
    for line in errors + problems:
        print(f"perfbench: {line}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
