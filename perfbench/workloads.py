"""Workloads of the turbochannel benchmark and the sweep that runs them.

Each workload is a fixed list of operations built from a workload seed. An
operation is one (scenario, bit time, seed) run, or one CLI command in the
``configs`` workload. A sweep runs every operation once, in order, from a
single caller, and writes the workload's output files. The simulator only
ever sees the resulting ``Scenario`` values and config files; the workload
seed itself never reaches it.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import random
import shutil
import sys
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CONFIGS = ROOT / "configs"

sys.path.insert(0, str(SRC))

from turbochannel import cli, harness  # noqa: E402
from turbochannel.harness import Scenario  # noqa: E402
from turbochannel.turbo import builtin_policy  # noqa: E402

DEFAULT_SEED = 1
WORKLOADS = ("load-sweep", "slow-ramp", "quiet-link", "configs")

XEON = builtin_policy("xeon-silver-4108")


def metric_units(kind: str) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json lists them under ``kind``."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc[kind]}


def derive_seeds(workload_seed: int, scenario: str, count: int) -> tuple[int, ...]:
    """Simulator seeds for one scenario, drawn from the workload seed."""
    rng = random.Random(f"perfbench:{workload_seed}:{scenario}")
    return tuple(sorted(rng.sample(range(1, 1_000_000), count)))


@dataclass
class Operation:
    """One timed unit of work: ``run(inputs, out)`` writes into ``out``."""

    name: str
    output: str                 # output file or directory it contributes to
    run: Callable[[Path, Path], None]


@dataclass
class Workload:
    name: str
    operations: list[Operation]
    finish: Callable[[Path], None] = lambda out: None  # writes after all runs
    inputs: dict[str, str] = field(default_factory=dict)  # file name -> text


# -- sweep workloads: runs through harness.run_one, one CSV per scenario ------------

def _scenario_ops(scenarios: list[Scenario]) -> tuple[list[Operation], Callable]:
    reports = {s.name: harness.ScenarioReport(s.name) for s in scenarios}

    def run_op(s: Scenario, bt: int, seed: int):
        def run(inputs: Path, out: Path):
            reports[s.name].rows.append(harness.run_one(s, bt, seed))
        return run

    def finish(out: Path):
        try:
            for name, report in reports.items():
                harness.emit_csv(report, out / f"{name}.csv")
        finally:
            for report in reports.values():
                report.rows.clear()

    ops = [Operation(f"{s.name}/{bt}us/{seed}", f"{s.name}.csv", run_op(s, bt, seed))
           for s in scenarios for bt in s.bit_times_us for seed in s.seeds]
    return ops, finish


def load_sweep(seed: int) -> list[Scenario]:
    """The c08 shape: constant load 0-4 cores over the 6-30 ms bit times."""
    out = []
    for load in range(5):
        name = f"load-sweep-{load}"
        out.append(Scenario(
            name=name, policy=XEON,
            bit_times_us=(6_000, 12_000, 18_000, 24_000, 30_000), payload_bytes=80,
            seeds=derive_seeds(seed, name, 2), constant_cores=load,
            tx_cores=2 if load == 0 else None,
            max_retries=3 if load == 4 else 10))
    return out


def slow_ramp(seed: int) -> list[Scenario]:
    """The c10 shape, read from configs/slow-ramp.cfg."""
    s = harness.load_scenario(CONFIGS / "slow-ramp.cfg")
    return [replace(s, seeds=derive_seeds(seed, s.name, 1))]


def quiet_link(seed: int) -> list[Scenario]:
    """A clean channel: no background noise, short bits, long payloads."""
    name = "quiet-link"
    return [Scenario(name=name, policy=XEON, bit_times_us=(1_000, 2_000),
                     payload_bytes=256, seeds=derive_seeds(seed, name, 30),
                     idle_noise=False, constant_cores=0)]


# -- configs workload: every remaining configs/*.cfg through cli.main ---------------

CONFIG_RUNS = ("countermeasure-noise", "idle-7ms", "packet-record-5ms",
               "turbo-off", "vm-guests")


def _cli(argv: list[str]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"turbochannel {' '.join(argv)} exited {code}")


def configs(seed: int) -> tuple[list[tuple[str, list[str]]], dict[str, str]]:
    """(operation name, CLI argv) for each command, and the config files they
    read: copies of configs/*.cfg with twice as many seeds, drawn from the
    workload seed, so that a few slow transfers move the total less.
    ``{in}`` and ``{out}`` in an argv stand for the input and output
    directories."""
    commands = []
    inputs = {}
    for stem in CONFIG_RUNS:
        src = CONFIGS / f"{stem}.cfg"
        s = harness.load_scenario(src)
        seeds = derive_seeds(seed, s.name, 2 * len(s.seeds))
        inputs[src.name] = src.read_text() + f"seeds = {', '.join(map(str, seeds))}\n"
        commands.append((f"run-{stem}", ["run", f"{{in}}/{src.name}"]))
    commands.append(("fec-analyze", [
        "fec-analyze", "{out}/run-packet-record-5ms/packet-record-5ms-packets.trace",
        "--bit-time-ms", "5"]))
    commands.append(("noise-histogram-idle-7ms",
                     ["noise-histogram", "{in}/idle-7ms.cfg"]))
    return commands, inputs


def _command_op(name: str, argv: list[str]) -> Operation:
    def run(inputs: Path, out: Path):
        args = [a.replace("{in}", str(inputs)).replace("{out}", str(out)) for a in argv]
        _cli(args + ["--out", str(out / name)])
    return Operation(name, name, run)


def build(name: str, seed: int) -> Workload:
    """Set-up: imports (done above), config parsing and core planning."""
    if name == "configs":
        commands, inputs = configs(seed)
        return Workload(name, [_command_op(n, a) for n, a in commands], inputs=inputs)
    scenarios = {"load-sweep": load_sweep, "slow-ramp": slow_ramp,
                 "quiet-link": quiet_link}[name](seed)
    ops, finish = _scenario_ops(scenarios)
    return Workload(name, ops, finish)


# -- running and checking -----------------------------------------------------------

@dataclass
class SweepResult:
    seconds: float
    op_ms: list[float]          # per operation, in order
    finish_ms: float            # writing the outputs that follow the runs
    raised: set[str]            # operations that raised
    digests: dict[str, str]     # output path -> sha256


def run_sweep(w: Workload, root: Path, tracer=None) -> SweepResult:
    """Run every operation once and digest what the workload wrote to
    ``root/outputs``. A ``tracer`` is told which operation its spans belong
    to."""
    # fresh directories each time: on some file systems rewriting an
    # existing file waits for its old blocks, which would add to the time
    if root.exists():
        shutil.rmtree(root)
    inputs, out = root / "inputs", root / "outputs"
    inputs.mkdir(parents=True)
    out.mkdir()
    for file_name, text in w.inputs.items():
        (inputs / file_name).write_text(text)
    # every sweep starts from the same collector state, so none of them pays
    # for collecting the garbage an earlier one left
    gc.collect()
    op_ms = []
    raised = set()
    t0 = time.perf_counter()
    for op in w.operations:
        if tracer is not None:
            tracer.operation = op.name
        t = time.perf_counter()
        try:
            op.run(inputs, out)
        except Exception:  # one broken run must not hide the others
            raised.add(op.name)
            traceback.print_exc(file=sys.stderr)
        op_ms.append((time.perf_counter() - t) * 1e3)
    t = time.perf_counter()
    try:
        w.finish(out)
    except Exception:  # the missing files fail their operations
        traceback.print_exc(file=sys.stderr)
    finish_ms = (time.perf_counter() - t) * 1e3
    seconds = time.perf_counter() - t0
    return SweepResult(seconds, op_ms, finish_ms, raised, digest_tree(out))


def digest_tree(root: Path) -> dict[str, str]:
    return {p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def failed_operations(w: Workload, result: SweepResult,
                      expected: dict[str, str]) -> set[str]:
    """Operations that raised, or whose output differs from ``expected``."""
    bad_paths = {p for p in set(expected) | set(result.digests)
                 if expected.get(p) != result.digests.get(p)}
    bad_outputs = {p.split("/", 1)[0] for p in bad_paths}
    return result.raised | {op.name for op in w.operations
                            if op.output in bad_outputs}
