"""One pass of one workload in one fresh process; `run.py` starts it.

    python3 perfbench/worker.py --workload gl0 --seed 1 --pass-index 0 \
        --trace 0 --t0 <time.monotonic() of the parent just before the start>

Set-up is everything from the parent's `--t0` to the first timed
operation: interpreter start, imports, loading inputs, building potentials.
The worker then runs one timed pass over the workload's operations, reads
its peak resident memory, checks every output and prints one JSON object.
With --setup-only it prints the set-up time and stops there.
"""
from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pass-index", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spans-out")
    args = ap.parse_args()

    t_import = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import slspec
    import_s = time.perf_counter() - t_import
    if not Path(slspec.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"slspec imported from {slspec.__file__}, not from {SRC}", file=sys.stderr)
        return 3
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload](random.Random(f"{args.seed}/{args.pass_index}"))
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    t = time.perf_counter()
    outputs = workload.run_pass()
    pass_s = time.perf_counter() - t
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    per_layer = spans = None
    if tracer:
        per_layer = {**tracer.metrics(), "setup.import_s": import_s}
        spans = list(tracer.spans)

    failed = wrong = 0
    check_failures, errors = [], []
    for label, out in outputs:
        bad, err = workload.verdict(label, out)
        if bad:
            failed += 1
            wrong += not isinstance(out, Exception)
            check_failures.extend(f"{label}: {msg}" for msg in bad)
        if err is not None:
            errors.append(err)
    result = {"attempted": len(outputs), "failed": failed, "wrong": wrong,
              "check_failures": check_failures, "errors": errors,
              "setup_s": setup_s, "import_s": import_s, "pass_s": pass_s,
              "peak_rss_mb": peak_rss_mb, "per_layer": per_layer}
    if tracer and args.spans_out:
        Path(args.spans_out).write_text(json.dumps(spans))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
