"""turbochannel benchmark: host time, memory and set-up of seeded sweeps.

    python3 perfbench/run.py                  every workload, untraced then traced
    python3 perfbench/run.py --workload load-sweep --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py --record-golden  re-record perfbench/golden.json

One workload per invocation runs as a closed loop with one caller and no
threads or pool. It repeats the workload's sweep until ``--seconds`` would
run out, and checks every output file of every sweep against the digests in
``golden.json``; for a seed with no recorded digests it prints them and checks
each sweep against the first. ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` alternates untraced and traced sweeps and reports per-layer
metrics. The last line of standard output is one JSON object. The exit
status is 0 only when every operation ran and every output matched.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE.parent / ".perfbench_out"
GOLDEN = HERE / "golden.json"
GOLDEN_SEEDS = range(11)
SETUP_SAMPLES = 15

try:
    import workloads
    import tracing
except ImportError as exc:
    sys.exit(f"perfbench: cannot import the simulator from {HERE.parent / 'src'}: {exc}")
if not Path(workloads.harness.__file__).resolve().is_relative_to(workloads.SRC):
    sys.exit(f"perfbench: turbochannel was imported from {workloads.harness.__file__}, "
             f"not from {workloads.SRC}")

# imports the simulator, parses the workload's configs and plans its cores,
# then reports; the parent times process start to that line
SETUP_CHILD = """\
import sys
sys.path.insert(0, sys.argv[1])
import workloads
workloads.build(sys.argv[2], int(sys.argv[3]))
print("ready", flush=True)
"""


def measure_setup(name: str, seed: int) -> list[float]:
    samples = []
    for _ in range(SETUP_SAMPLES):
        argv = [sys.executable, "-c", SETUP_CHILD, str(HERE), name, str(seed)]
        t0 = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            samples.append(time.perf_counter() - t0)
            child.stdout.read()
        if child.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up of {name} exited {child.returncode}")
    return samples


def sweep_seconds(results: list[workloads.SweepResult]) -> float:
    """Seconds for one sweep: each operation's median time over the sweeps,
    summed, plus the median time to write the outputs. A burst of host noise
    that slows part of one sweep does not move it."""
    per_op = zip(*(r.op_ms for r in results))
    ms = sum(statistics.median(col) for col in per_op)
    return (ms + statistics.median(r.finish_ms for r in results)) / 1e3


def load_golden() -> dict:
    return json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}


class Checker:
    """Counts operations and failures over every sweep of one run."""

    def __init__(self, w: workloads.Workload, expected: dict | None):
        self.w = w
        self.expected = expected
        self.attempted = 0
        self.failed = 0

    def check(self, result: workloads.SweepResult):
        if self.expected is None:
            self.expected = result.digests
        bad = workloads.failed_operations(self.w, result, self.expected)
        for name in sorted(bad):
            print(f"FAILED {self.w.name} {name}", file=sys.stderr)
        self.attempted += len(self.w.operations)
        self.failed += len(bad)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    out = OUT / name
    setup = measure_setup(name, seed)
    w = workloads.build(name, seed)
    golden = load_golden().get(name, {}).get(str(seed))
    checker = Checker(w, golden)

    plain: list[workloads.SweepResult] = []
    traced: list[tuple[workloads.SweepResult, tracing.Tracer]] = []
    deadline = time.perf_counter() + seconds
    while True:
        if trace and len(traced) < len(plain):
            tracer = tracing.Tracer()
            with tracer.installed():
                result = workloads.run_sweep(w, out, tracer)
            traced.append((result, tracer))
        else:
            result = workloads.run_sweep(w, out)
            plain.append(result)
            if len(plain) == 1:
                # later sweeps reuse memory the allocator kept, each a little
                # differently, so the peak is read after the first one
                peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        checker.check(result)
        if trace and not traced:
            continue
        # stop before a sweep that would overrun the time
        upcoming = traced[-1][0] if trace and len(traced) < len(plain) else plain[-1]
        if time.perf_counter() + upcoming.seconds > deadline:
            break

    if golden is None:
        for path, digest in sorted(checker.expected.items()):
            print(f"digest {name} seed={seed} {path} {digest}")
    else:
        print(f"golden {name} seed={seed}: {len(golden)} files checked per sweep")
    print(f"{name} ops_failed {checker.failed} of {checker.attempted} "
          f"({checker.failed / checker.attempted:.1%})")

    if trace:
        # every layer figure comes from one traced sweep, the median one, so
        # that its self times add up to no more than its own duration
        result, tracer = sorted(traced, key=lambda t: t[0].seconds)[(len(traced) - 1) // 2]
        tracer.write_spans(OUT / f"{name}.spans.csv")
        metrics = tracer.metrics()
        metrics["trace.sweep_s"] = result.seconds
        metrics["trace.overhead"] = (sweep_seconds([r for r, _ in traced])
                                     / sweep_seconds(plain) - 1)
        units = workloads.metric_units("per_layer")
        counts = dict.fromkeys(metrics, 1)
        counts["trace.overhead"] = len(traced)
    else:
        op_ms = [ms for r in plain for ms in r.op_ms]
        metrics = {
            "sweep_s": sweep_seconds(plain),
            "run_ms.p50": statistics.median(op_ms),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_kib / 1024,
        }
        units = workloads.metric_units("end_to_end")
        counts = {"sweep_s": len(plain), "run_ms.p50": len(op_ms),
                  "setup_s": len(setup), "peak_rss_mb": 1}
        if len(op_ms) >= 100:
            # only with at least ten samples beyond it; not part of the result
            p90 = statistics.quantiles(op_ms, n=10)[-1]
            print(f"{name} run_ms.p90 {p90:.6g} ms (n={len(op_ms)})")
    metrics = {m: metrics[m] for m in units}
    for m, v in metrics.items():
        print(f"{name} {m} {v:.6g} {units[m]} (n={counts[m]})")

    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }))
    return 0 if checker.failed == 0 else 1


def record_golden() -> int:
    golden = {}
    for name in workloads.WORKLOADS:
        golden[name] = {}
        for seed in GOLDEN_SEEDS:
            w = workloads.build(name, seed)
            result = workloads.run_sweep(w, OUT / name)
            if result.raised:
                print(f"{name} seed={seed}: {sorted(result.raised)} raised", file=sys.stderr)
                return 1
            golden[name][str(seed)] = result.digests
            print(f"recorded {name} seed={seed}: {len(result.digests)} files", flush=True)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


def machine() -> dict:
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count()}


def run_all(seed: int, seconds: float) -> int:
    """Every workload in its own process, untraced then traced."""
    facts = machine()
    print("machine " + " ".join(f"{k}={v}" for k, v in facts.items()), flush=True)
    summary = {"machine": facts, "seed": seed, "seconds": seconds, "workloads": {}}
    status = 0
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            child = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
            lines = child.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if child.returncode != 0:
                status = 1
            if lines and lines[-1].startswith("{"):
                result = json.loads(lines[-1])
                summary["workloads"].setdefault(name, {})[
                    "per_layer" if trace else "end_to_end"] = result
    OUT.mkdir(exist_ok=True)
    (OUT / "summary.json").write_text(json.dumps(summary, indent=1) + "\n")
    print(f"wrote {OUT / 'summary.json'}")
    return status


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"), default="all")
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-golden", action="store_true")
    args = p.parse_args(argv)
    if args.record_golden:
        return record_golden()
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
