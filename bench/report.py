"""Run every workload untraced and traced, and print both runs' metrics
with the tracing overhead.

    python3 bench/report.py [--seed N] [--seconds S] [--workload NAME ...]

Each workload runs twice with the same seed and length: ``run.py --trace 0``
for the end-to-end metrics, then ``run.py --trace 1`` for the per-layer
metrics, the layer shares and the dominant-layer check.  The overhead line
compares the traced run's ``trace.op_p50_ref`` with the untraced
``op_p50_ref`` (both relative to the reference kernel, so host speed drift
between the two runs mostly cancels).  Exits non-zero if any run fails or
any operation failed.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
WORKLOADS = ("analyze-syn5", "haar-h4-full", "cli-h2")


def _run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
    lines = proc.stdout.splitlines()
    print("\n".join(lines[:-1]), flush=True)
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=json.loads((BENCH.parent / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    args = parser.parse_args(argv)

    all_correct = True
    for workload in args.workload or WORKLOADS:
        plain = _run(workload, args.seed, args.seconds, 0)
        traced = _run(workload, args.seed, args.seconds, 1)
        untraced = plain["metrics"]["op_p50_ref"]["value"]
        with_spans = traced["metrics"]["trace.op_p50_ref"]["value"]
        print(f"tracing overhead {workload}: traced op_p50_ref {with_spans:.5g} "
              f"vs untraced {untraced:.5g} ({with_spans / untraced - 1:+.1%})\n", flush=True)
        all_correct = all_correct and plain["correct"] and traced["correct"]
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
