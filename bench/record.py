"""Record the benchmark of a commit, or of a change paired with its parent.

The record goes to one JSON file, BENCH_<n>.json at the repository root:

    python3 bench/record.py --out BENCH_6.json
    python3 bench/record.py --out BENCH_6.json --baseline ../parent-checkout
    python3 bench/record.py --out quick.json --quick

Run from anywhere; the tree this script sits in is the "change".  With
--baseline, a second checkout (for example the parent commit, made with
`git clone` or `git archive`) is the "parent", and every run is paired: run
i of a workload runs both trees with the same seed, the change first when i
is even and the parent first when i is odd.  Every run lasts
BENCHMARK.json's run_seconds.

Per tree, the recorder makes --runs untraced runs of `perfbench/run.py` per
workload, with seeds SEED, SEED + 1, ..., one traced run per workload at
SEED, and times the tier-1 test suite.  It only reads the JSON line each
perfbench run prints; the workloads, checks and bounds stay perfbench's and
BENCHMARK.json's.  --quick makes one untraced run each of `gl0` and `glm`
at perfbench's minimum number of passes (about a minute per tree), and
nothing else.
"""
from __future__ import annotations

import argparse
import ctypes
import glob
import importlib.metadata
import json
import os
import platform
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
SEED = 301


def _git(tree: Path, *args: str) -> str:
    out = subprocess.run(["git", *args], cwd=tree, capture_output=True, text=True)
    return out.stdout.strip()


def _blas_threads():
    """Thread count of numpy's bundled OpenBLAS, or None where it cannot be
    asked."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "libscipy_openblas*.so")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def environment() -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "machine": {
            "nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "cpu": _cpu_model(),
            "system": f"{platform.system()} {platform.release()}",
            "python": platform.python_version(),
        },
        "libraries": {
            **{name: importlib.metadata.version(name) for name in ("numpy", "scipy", "mpmath")},
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "blas_threads": _blas_threads(),
            "thread_env": {k: os.environ.get(k) for k in
                           ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        },
    }


def perfbench(tree: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    """One perfbench run in `tree`; its summary line plus the run's length."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t = time.monotonic()
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    elapsed = time.monotonic() - t
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"seed": seed, "error": f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}",
                "run_s": elapsed}
    summary = json.loads(lines[-1])
    return {"seed": seed, "run_s": elapsed, "correct": summary["correct"],
            "attempted": summary["attempted"], "failed": summary["failed"],
            "metrics": {k: v["value"] for k, v in summary["metrics"].items()}}


def tier1(tree: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    t = time.monotonic()
    proc = subprocess.run(TIER1, cwd=tree, env=env, capture_output=True, text=True)
    wall = time.monotonic() - t
    tail = proc.stdout.strip().splitlines()[-1:] or [""]
    return {"wall_s": wall, "exit": proc.returncode, "summary": tail[0].strip("= ")}


def spread(values: list) -> dict:
    v = np.asarray(values, dtype=float)
    q1, med, q3 = np.percentile(v, [25, 50, 75])
    return {"n": len(v), "median": float(med), "q1": float(q1), "q3": float(q3),
            "min": float(v.min()), "max": float(v.max())}


def summarize(runs: list, metric_names: list) -> dict:
    ok = [r for r in runs if "metrics" in r]
    out = {name: spread([r["metrics"][name] for r in ok]) for name in metric_names if ok}
    out["runs_failed_to_report"] = len(runs) - len(ok)
    out["all_correct"] = bool(ok) and all(r["correct"] for r in ok)
    out["failed_operations"] = sum(r["failed"] for r in ok)
    out["attempted_operations"] = sum(r["attempted"] for r in ok)
    return out


def compare(change: list, parent: list, metrics: list) -> dict:
    """Per metric: pairs the change wins (ties count for neither), and the
    change of the median against the parent's quartile distance."""
    out = {}
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        pairs = [(c["metrics"][name], p["metrics"][name]) for c, p in zip(change, parent)
                 if "metrics" in c and "metrics" in p]
        if not pairs:
            continue
        wins = sum((c < p) if lower else (c > p) for c, p in pairs)
        cs, ps = spread([c for c, _ in pairs]), spread([p for _, p in pairs])
        out[name] = {"pairs": len(pairs), "change_better": wins,
                     "median_change": cs["median"], "median_parent": ps["median"],
                     "relative_change": cs["median"] / ps["median"] - 1.0 if ps["median"] else None,
                     "parent_quartile_distance": ps["q3"] - ps["q1"],
                     "bound": m["bound"]}
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, help="JSON file to write")
    ap.add_argument("--baseline", type=Path, help="checkout of the commit to compare against")
    ap.add_argument("--runs", type=int, default=5, help="untraced runs per workload")
    ap.add_argument("--quick", action="store_true",
                    help="one untraced run each of gl0 and glm; no traced runs, no tests")
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    # --seconds 1 leaves each run at perfbench's minimum number of passes
    seconds = 1 if args.quick else bench["run_seconds"]
    metrics = bench["end_to_end"]
    names = [m["name"] for m in metrics]
    trees = {"change": ROOT}
    if args.baseline:
        trees["parent"] = args.baseline.resolve()
    if args.quick:
        plan = {"gl0": 1, "glm": 1}
    else:
        plan = {w["name"]: args.runs for w in bench["workloads"]}

    doc = {"recorded": datetime.now(timezone.utc).isoformat(timespec="seconds"),
           "command": " ".join(["python3", "bench/record.py"] + [
               "<checkout>" if a == str(args.baseline) else a for a in sys.argv[1:]]),
           **environment(),
           "perfbench": {"seconds": seconds, "runs": plan, "quick": args.quick},
           "trees": {label: {"commit": _git(tree, "rev-parse", "HEAD"),
                             "uncommitted_changes": bool(_git(tree, "status", "--porcelain",
                                                              "--untracked-files=no")),
                             "workloads": {}}
                     for label, tree in trees.items()}}
    labels = list(trees)
    for workload, n in plan.items():
        runs = {label: [] for label in labels}
        for i in range(n):
            order = labels if i % 2 == 0 else labels[::-1]
            for label in order:
                r = perfbench(trees[label], workload, SEED + i, seconds, 0)
                r["first_in_pair"] = label == order[0]
                runs[label].append(r)
                print(f"{workload} run {i} {label}: {r.get('metrics', r.get('error'))}",
                      file=sys.stderr, flush=True)
        for label in labels:
            rec = {"runs": runs[label], "summary": summarize(runs[label], names)}
            if not args.quick:
                traced = perfbench(trees[label], workload, SEED, seconds, 1)
                rec["traced"] = traced.get("metrics", traced)
            doc["trees"][label]["workloads"][workload] = rec
        if "parent" in runs:
            doc.setdefault("comparison", {})[workload] = compare(
                runs["change"], runs["parent"], metrics)
    if not args.quick:
        for label in labels:
            doc["trees"][label]["tier1"] = tier1(trees[label])
            print(f"tier-1 {label}: {doc['trees'][label]['tier1']}", file=sys.stderr, flush=True)

    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
