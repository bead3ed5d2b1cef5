"""Compare two source trees on the benchmark and the test suite, in pairs.

    python3 tools/pairbench.py --parent OLD --change NEW --out BENCH.json \
        --plan theorem_demo:10,floquet_scan:10,route_agreement:5 \
        --seed0 1501 --traced theorem_demo --tier1

OLD and NEW are two checkouts (for example ``git archive`` of the parent
commit and a copy of the working tree).  For each workload of ``--plan`` the
script runs ``perfbench/run.py --trace 0`` once in each tree per seed
(seeds seed0, seed0 + 1, ...) for the ``run_seconds`` of that tree's
BENCHMARK.json, parent first on even pairs and change first on odd ones,
and records every run's end-to-end metrics with their median,
quartiles, the pairs the change won and the parent's quartile distance.
``--traced`` adds one ``--trace 1`` run per tree at seed0.  ``--tier1`` then
runs the tier-1 suite in the change's tree and the parent's, back to back,
and records each one's wall time and pass/fail counts.  ``src_lines`` holds
the line count of each tree's ``src/**/*.py``, and ``src_lines.files`` each
``src/qptransport/*.py`` file's, so a change shows where its lines went.
``machine`` names the CPU
count and architecture, the BLAS thread variables every run saw, and each
tree's numpy and SciPy versions and BLAS builds, read under that tree's
PYTHONPATH: two OpenBLAS builds sharing few cores run slower than one, so
a timing holds for the machine that made it.  Every command runs with
PYTHONDONTWRITEBYTECODE=1, from the tree's own root.  Standard library
only; the results are merged into the JSON file at ``--out``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

END_TO_END = ("wall_s", "peak_rss_mb", "setup_s")
TIER1 = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"]
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
#: prints a tree's numpy and SciPy versions and BLAS builds as JSON
LIBRARIES = """
import json, numpy, scipy
def build(module):
    blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"version": module.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}
print(json.dumps({"numpy": build(numpy), "scipy": build(scipy)}))
"""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--plan", default="",
                        help="workload:pairs,... (empty: no workload runs)")
    parser.add_argument("--seed0", type=int, required=True)
    parser.add_argument("--traced", default="",
                        help="comma-separated workloads traced once per tree")
    parser.add_argument("--tier1", action="store_true")
    return parser.parse_args(argv)


def environment(tree: Path) -> dict:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = str(tree / "src")
    return env


def run_seconds(tree: Path) -> float:
    return json.loads((tree / "BENCHMARK.json").read_text())["run_seconds"]


def line_count(path: Path) -> int:
    """Lines of one file, as ``wc -l`` counts them."""
    return path.read_bytes().count(b"\n")


def src_lines(tree: Path) -> int:
    """Lines of the tree's src/**/*.py."""
    return sum(map(line_count, (tree / "src").rglob("*.py")))


def src_files(trees: dict) -> dict:
    """file name -> {tree name: lines} for each src/qptransport/*.py, 0
    where a tree lacks the file."""
    dirs = {key: tree / "src" / "qptransport" for key, tree in trees.items()}
    names = sorted({p.name for d in dirs.values() for p in d.glob("*.py")})
    return {name: {key: line_count(d / name) if (d / name).exists() else 0
                   for key, d in dirs.items()}
            for name in names}


def machine(trees: dict) -> dict:
    """The host, the BLAS thread variables and each tree's libraries."""
    libraries = {
        name: json.loads(subprocess.run(
            [sys.executable, "-c", LIBRARIES], cwd=tree,
            env=environment(tree), check=True, capture_output=True,
            text=True).stdout)
        for name, tree in trees.items()}
    return {"cpu_count": os.cpu_count(), "machine": platform.machine(),
            **{var: os.environ.get(var) for var in THREAD_VARS}, **libraries}


def bench(tree: Path, workload: str, seed: int, trace: int) -> dict:
    """The last-line JSON of one perfbench run in tree."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(run_seconds(tree)),
           "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=tree, env=environment(tree), check=True,
                          capture_output=True, text=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def summary(parent: list, change: list) -> dict:
    """Median, quartiles and runs per side, and how the pairs compare
    (lower is better)."""
    def side(runs):
        q1, _, q3 = statistics.quantiles(runs, n=4, method="inclusive") \
            if len(runs) > 1 else (runs[0], None, runs[0])
        return {"median": statistics.median(runs), "q1": q1, "q3": q3,
                "runs": [round(v, 4) for v in runs]}

    old, new = side(parent), side(change)
    better = sum(c < p for p, c in zip(parent, change))
    return {"parent": old, "change": new, "change_better_pairs": better,
            "median_change_pct": 100.0 * (new["median"] - old["median"])
            / old["median"],
            "parent_iqr": old["q3"] - old["q1"],
            "median_gap": abs(new["median"] - old["median"])}


def run_workload(args, workload: str, pairs: int) -> dict:
    trees = {"parent": args.parent, "change": args.change}
    results = {"parent": [], "change": []}
    seeds = list(range(args.seed0, args.seed0 + pairs))
    for k, seed in enumerate(seeds):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for name in order:
            res = bench(trees[name], workload, seed, 0)
            results[name].append(res)
            print(f"{workload} seed {seed} {name}: "
                  f"{res['metrics']['wall_s']['value']:.4f} s "
                  f"correct={res['correct']} failed={res['failed']}",
                  file=sys.stderr, flush=True)
    record = {
        "seeds": seeds, "pairs": pairs,
        "failed_ops": {n: sum(r["failed"] for r in runs)
                       for n, runs in results.items()},
        "attempted_ops": {n: sum(r["attempted"] for r in runs)
                          for n, runs in results.items()},
        "correct": {n: all(r["correct"] for r in runs)
                    for n, runs in results.items()}}
    for metric in END_TO_END:
        values = {n: [r["metrics"][metric]["value"] for r in runs]
                  for n, runs in results.items()}
        record[metric] = summary(values["parent"], values["change"])
    return record


def run_tier1(tree: Path) -> dict:
    t0 = time.perf_counter()
    done = subprocess.run(TIER1, cwd=tree, env=environment(tree),
                          capture_output=True, text=True)
    wall = time.perf_counter() - t0
    tail = done.stdout.strip().splitlines()[-1] if done.stdout else ""
    counts = {word: int(num)
              for num, word in re.findall(r"(\d+) (passed|failed|error)", tail)}
    return {"wall_s": round(wall, 1), "summary": tail, **counts}


def main(argv=None) -> int:
    args = parse_args(argv)
    out = json.loads(args.out.read_text()) if args.out.exists() else {}
    out.setdefault("benchmark", {})["command"] = (
        "python3 perfbench/run.py --workload W --seed S "
        f"--seconds {run_seconds(args.change):g} --trace 0|1")
    trees = {"parent": args.parent, "change": args.change}
    out.setdefault("src_lines", {}).update(
        how="newlines in src/**/*.py", parent=src_lines(args.parent),
        change=src_lines(args.change), files=src_files(trees))
    out.setdefault("machine", {}).update(machine(trees))
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    plan = [item.split(":") for item in args.plan.split(",") if item]
    for workload, pairs in plan:
        out.setdefault("end_to_end", {})[workload] = \
            run_workload(args, workload, int(pairs))
        args.out.write_text(json.dumps(out, indent=1) + "\n")
    for workload in filter(None, args.traced.split(",")):
        layers = out.setdefault("per_layer", {"seed": args.seed0})
        layers[workload] = {
            name: {key: val["value"] for key, val in bench(
                tree, workload, args.seed0, 1)["metrics"].items()}
            for name, tree in (("parent", args.parent),
                               ("change", args.change))}
        args.out.write_text(json.dumps(out, indent=1) + "\n")
    if args.tier1:
        out["tier1"] = {"command": " ".join(["PYTHONPATH=src python", *TIER1[1:]]),
                        "order": "change, then parent, back to back",
                        "change": run_tier1(args.change),
                        "parent": run_tier1(args.parent)}
        args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
