"""trotterr benchmark: one workload, one run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The run sets up (import, warm-up), then
repeats the workload's operation in a closed loop, one at a time, for about
``--seconds`` seconds: another operation starts only if the previous one's
duration still fits, and at least one always runs.  Every output is checked
and fingerprinted.  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (``setup_s``,
``op_p50_ref``, ``peak_rss_mb``); with ``--trace 1`` they are the per-layer
ones from ``tracing.LAYER_METRICS`` plus ``trace.op_p50_ref``, measured in a
separate run with the wrappers installed.  The lines before it give every
metric with its unit and sample count, the raw ``op_p50_s`` and, where at
least 100 operations ran, ``op_p90_s``, ``error_rate``, the result
fingerprints, the machine, and for traced runs the layer shares and the
dominant-layer check.

``op_p50_ref`` is the median over operations of the operation's wall time
divided by the median time of ``SpeedProbe``'s fixed kernel sampled on the
same CPU during the operation, so it is in units of that kernel.
``setup_s`` is normalized the same way and expressed in seconds at the
speed where the kernel takes 1 ms; the raw wall times are printed too.
On a shared host whose CPU speed drifts by 1.5x or more over seconds to
minutes, raw wall times of a 30-second run move by 15-30% between runs;
the ratio cancels most of that drift.
"""

import os

# Cap the BLAS pools before anything can import numpy; every interpreter
# the benchmark starts inherits these.
THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(THREADS)

# Every process of a run shares one CPU with the speed probe (SpeedProbe).
CPU = min(os.sched_getaffinity(0))
os.sched_setaffinity(0, {CPU})

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = workloads.ROOT
SETUP_PROBES = 4  # fresh interpreters timing the set-up, besides this one
P90_MIN_SAMPLES = 100  # at least ten samples beyond the 90th percentile
KERNEL_S = 0.001  # setup_s is in seconds at the speed where the probe kernel takes 1 ms
PREDICTIONS = json.loads((BENCH / "predictions.json").read_text())
REFERENCE = json.loads((BENCH / "reference.json").read_text())


def _parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true", help="set up, print the set-up time and exit"
    )
    return parser.parse_args(argv)


def _require_sources() -> None:
    """The benchmark measures the checkout it sits in, nothing installed."""
    src = ROOT / "src" / "trotterr"
    missing = [p for p in (src / "__init__.py", workloads.FIXTURES) if not p.exists()]
    if missing:
        sys.exit(f"bench: {', '.join(map(str, missing))} not found; run from a full checkout")
    sys.path.insert(0, str(ROOT / "src"))


def _probe_setup(args) -> tuple[float, float]:
    """(start, seconds) of the set-up of one fresh interpreter running this
    script; ``time.perf_counter`` is the same clock in every process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    out = subprocess.run(cmd, env=workloads.child_env(), check=True,
                         stdout=subprocess.PIPE, text=True).stdout
    return tuple(json.loads(out.splitlines()[-1]))


# Times a fixed ~1-ms kernel every 50 ms and appends "<start> <seconds>"
# lines to the file named by argv[2], until the process argv[3] is gone.  Half the kernel is Python dict
# updates, half small numpy array arithmetic: the two kinds of work trotterr
# spends its time in, which a busy host slows by different factors.
_SPEED_KERNEL = """
import os, sys, time
import numpy as np
os.sched_setaffinity(0, {int(sys.argv[1])})
rng = np.random.default_rng(0)
lam = np.linspace(-1.0, 1.0, 256)
parent = int(sys.argv[3])
with open(sys.argv[2], "w", buffering=1) as out:
    while os.getppid() == parent:
        t = time.perf_counter()
        acc = {}
        for i in range(2000):
            acc[i & 255] = acc.get(i & 255, 0) + i
        g = rng.standard_normal((48, 256))
        w = g * g
        (w @ lam) / w.sum(axis=1)
        out.write(f"{t} {time.perf_counter() - t}\\n")
        time.sleep(0.05)
"""


class SpeedProbe:
    """A process sharing this process's CPU that times a small fixed kernel
    twenty times a second.  It shares no code with trotterr, so the kernel's
    time tracks only how fast the CPU is running; it takes about 1% of the
    CPU from the operation, the same in every run."""

    def __init__(self, cpu: int, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        self.path = path
        self.proc = subprocess.Popen(
            [sys.executable, "-c", _SPEED_KERNEL, str(cpu), str(path), str(os.getpid())]
        )
        # the first operation starts once the probe has finished starting up
        while not (path.exists() and path.read_text()) and self.proc.poll() is None:
            time.sleep(0.01)

    def close(self) -> list[tuple[float, float]]:
        """Stop the probe and return its (start, seconds) samples."""
        self.proc.terminate()
        self.proc.wait()
        lines = self.path.read_text().splitlines()
        self.path.unlink()
        return [tuple(map(float, line.split())) for line in lines if line.count(" ") == 1]


def _ref_ratios(spans: list[tuple[float, float]], samples) -> list[float]:
    """Each operation's wall time over the median kernel time sampled during it."""
    ratios = []
    for start, seconds in spans:
        inside = [d for t, d in samples if start <= t <= start + seconds]
        if not inside:  # an operation shorter than the sampling period
            inside = [min(samples, key=lambda s: abs(s[0] - start))[1]]
        ratios.append(seconds / statistics.median(inside))
    return ratios


def _machine() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "threads": THREADS,
        "cpu": CPU,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def _fingerprints(workload, fingerprints: dict) -> tuple[list[str], int]:
    """Compare against the stored references; returns (problems, checked)."""
    stored = REFERENCE.get(workload.name, {})
    problems, checked = [], 0
    for key, values in fingerprints.items():
        if key in stored:
            checked += 1
            problems += workload.compare(key, values, stored[key])
    return problems, checked


def _line(name: str, value, unit: str, note: str) -> str:
    shown = f"{value:.6g}" if isinstance(value, float) else str(value)
    return f"  {name:<24} {shown:>12} {unit:<6} {note}"


def main(argv=None) -> int:
    args = _parse_args(argv)
    _require_sources()
    workload = workloads.WORKLOADS[args.workload]()
    tracer = tracing.Tracer() if args.trace else None
    if args.setup_only:
        t = time.perf_counter()
        workload.setup(args.seed, traced=False)
        print(json.dumps([t, time.perf_counter() - t]))
        return 0

    durations, starts, failures, fingerprints = [], [], [], {}
    attempted = 0
    probe = SpeedProbe(CPU, ROOT / ".bench_out" / f"speed-{os.getpid()}.txt")
    try:
        t = time.perf_counter()
        workload.setup(args.seed, traced=tracer is not None)
        setups = [(t, time.perf_counter() - t)]
        if tracer is None:
            setups += [_probe_setup(args) for _ in range(SETUP_PROBES)]
        with tracing.installed(tracer) if tracer else nullcontext():
            start = time.perf_counter()
            deadline = start + args.seconds
            while True:
                inp = workload.prepare(attempted)
                t = time.perf_counter()
                try:
                    with tracer.operation(attempted) if tracer else nullcontext():
                        result = workload.run(inp, tracer)
                    problems = None
                except Exception:  # an operation that raises is a failure, not a crash
                    problems = [traceback.format_exc()]
                durations.append(time.perf_counter() - t)
                starts.append(t)
                if problems is None:
                    problems = workload.check(inp, result)
                    fp = workload.fingerprint(inp, result)
                    for key, values in fp.items():
                        if fingerprints.setdefault(key, values) != values:
                            problems.append(f"{key} differs between operations of one run")
                    problems += _fingerprints(workload, fp)[0]
                if problems:
                    failures.append(f"op {attempted}: " + "; ".join(problems))
                # the next operation starts with nothing of this one alive, so
                # peak_rss_mb does not depend on how many operations fit in a run
                result = inp = None
                gc.collect()
                attempted += 1
                if time.perf_counter() + durations[-1] > deadline:
                    break
    finally:
        samples = probe.close()
    ratios = _ref_ratios(list(zip(starts, durations)), samples)
    setup_ratios = _ref_ratios(setups, samples)

    for failure in failures:
        print(f"bench: FAILED {failure}", file=sys.stderr)
    n = len(durations)
    _, checked = _fingerprints(workload, fingerprints)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"closed loop, 1 caller, {n} operations in {time.perf_counter() - start:.1f} s")
    print("machine " + json.dumps(_machine()))
    print(f"fingerprint ({checked} of {len(fingerprints)} keys checked against reference.json) "
          + json.dumps(fingerprints, sort_keys=True))

    if tracer:
        metrics = tracer.metrics()
        metrics["trace.op_p50_ref"] = {"value": statistics.median(ratios), "unit": "ref"}
        for name, m in metrics.items():
            print(_line(name, m["value"], m["unit"], f"per op, n={n}"))
        shares = tracer.group_shares()
        print("layer shares " + json.dumps({g: round(s, 4) for g, s in shares.items()}))
        ok, why = tracing.dominant_layer_check(shares, PREDICTIONS["workloads"][args.workload]["dominant"])
        print(f"dominant-layer check: {'PASS' if ok else 'FAIL'}: {why}")
        tracer.write(ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.json")
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_ratios) * KERNEL_S, "unit": "s"},
            "op_p50_ref": {"value": statistics.median(ratios), "unit": "ref"},
            "peak_rss_mb": {"value": workloads.peak_rss_mb(workload), "unit": "MiB"},
        }
        print(_line("setup_s", metrics["setup_s"]["value"], "s",
                    f"median of n={len(setups)} set-ups (import + warm-up), at 1-ms kernel speed"))
        print(_line("setup_wall_s", statistics.median(d for _, d in setups), "s",
                    f"median wall time, n={len(setups)}"))
        print(_line("op_p50_ref", metrics["op_p50_ref"]["value"], "ref",
                    f"median, n={n}; wall time / probe kernel time"))
        print(_line("op_p50_s", statistics.median(durations), "s", f"median wall time, n={n}"))
        if n >= P90_MIN_SAMPLES:
            print(_line("op_p90_s", statistics.quantiles(durations, n=10)[8], "s", f"n={n}"))
        else:
            print(f"  {'op_p90_s':<24} {'undefined':>12} {'s':<6} n={n} < {P90_MIN_SAMPLES}")
        print(_line("peak_rss_mb", metrics["peak_rss_mb"]["value"], "MiB",
                    "largest CLI child" if args.workload == "cli-h2" else "this process"))
    print(_line("error_rate", len(failures) / n, "1", f"{len(failures)} failed of n={n}"))
    print(json.dumps({"correct": not failures, "attempted": n, "failed": len(failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
