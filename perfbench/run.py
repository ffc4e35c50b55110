"""slspec benchmark: one workload, one run, one JSON line of metrics.

    python3 perfbench/run.py --workload forward|gl0|glm --seed N \
        --seconds S --trace 0|1

Run from the repository root; the benchmark imports slspec from ./src and
nothing else.  One caller runs the workload in a closed loop, one pass per
fresh worker process, one process at a time.  With --trace 0 the last line
of standard output gives the end-to-end metrics (setup_s, wall_s,
peak_rss_mb, digits); with --trace 1 it gives the per-layer metrics of a
traced run.  Details go to perfbench/out/.  perfbench/README.md says what
each metric means and what the seed varies.
"""
from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# passes every run makes at least, whatever --seconds says; a forward pass
# takes over 20 s, so one is all the run length allows
MIN_PASSES = {"forward": 1, "gl0": 4, "glm": 4}
# set-up samples per run: one per pass, topped up by processes that only
# set up and exit
SETUP_SAMPLES = 3
# no pass starts that is expected to end later than this into the run, so
# that a slow spell of the machine cannot stretch a run without end
HARD_LIMIT_S = 54.0
# every run ends within this, checks included
RUN_LIMIT_S = 170.0


class RunError(RuntimeError):
    pass


def _worker(args, index: int, deadline: float, setup_only: bool = False) -> dict:
    """Run one pass, or only the set-up, in a fresh worker process and
    return its JSON."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--pass-index", str(index),
           "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    elif args.trace:
        cmd += ["--spans-out", str(OUT / f"{args.workload}-seed{args.seed}-pass{index}-spans.json")]
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd + ["--t0", repr(t0)], cwd=ROOT,
                            stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RunError("worker did not finish in time")
    if proc.returncode != 0:
        raise RunError(f"worker exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(MIN_PASSES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    start = time.monotonic()
    if not (ROOT / "src" / "slspec" / "__init__.py").is_file():
        print(f"no slspec sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    passes, spent = [], []
    try:
        while True:
            t = time.monotonic()
            passes.append(_worker(args, len(passes), start + RUN_LIMIT_S))
            spent.append(time.monotonic() - t)
            expected_end = time.monotonic() - start + statistics.median(spent)
            if expected_end > HARD_LIMIT_S or (len(passes) >= MIN_PASSES[args.workload]
                                               and expected_end > args.seconds):
                break
        setups = [p["setup_s"] for p in passes]
        while not args.trace and len(setups) < SETUP_SAMPLES:
            setups.append(_worker(args, len(setups), start + RUN_LIMIT_S, True)["setup_s"])
    except RunError as exc:
        print(f"{args.workload}: {exc}", file=sys.stderr)
        return 1
    errors = [e for p in passes for e in p["errors"]]
    failures = [m for p in passes for m in p["check_failures"]]
    for msg in sorted(set(failures)):
        print(f"{args.workload}: {msg}", file=sys.stderr)
    if not errors:
        print(f"{args.workload}: no output to measure digits on", file=sys.stderr)
        return 1

    if args.trace:
        from tracing import PER_LAYER
        metrics = {name: {"value": statistics.median(p["per_layer"][name] for p in passes),
                          "unit": unit} for name, unit, _ in PER_LAYER}
    else:
        values = {
            "setup_s": ("s", statistics.median(setups)),
            "wall_s": ("s", statistics.median(p["pass_s"] for p in passes)),
            # the smallest process peak: glibc keeps freed heap resident in
            # some processes and not in others (see README)
            "peak_rss_mb": ("MB", min(p["peak_rss_mb"] for p in passes)),
            "digits": ("digits", -math.log10(max(errors))),
        }
        metrics = {name: {"value": v, "unit": unit} for name, (unit, v) in values.items()}
    summary = {"correct": sum(p["wrong"] for p in passes) == 0,
               "attempted": sum(p["attempted"] for p in passes),
               "failed": sum(p["failed"] for p in passes),
               "metrics": metrics}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**summary, "passes": passes, "setups": setups}, indent=1))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
