"""Tests of the benchmark itself: digest checking, tracing, seed derivation.

    python3 -m pytest perfbench/tests -q
"""

import sys
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import workloads  # noqa: E402  (first: it puts src/ on the path)
import tracing  # noqa: E402
from turbochannel import harness, link, phy  # noqa: E402


def small_workload() -> workloads.Workload:
    """A few seconds' worth of every layer: noisy and loaded runs, a packet
    recording and its fec analysis through the CLI."""
    scenarios = [
        harness.Scenario(name="small-idle", policy=workloads.XEON,
                         bit_times_us=(7_000,), payload_bytes=16, seeds=(3, 4)),
        harness.Scenario(name="small-loaded", policy=workloads.XEON,
                         bit_times_us=(10_000,), payload_bytes=16, seeds=(5,),
                         constant_cores=2, max_retries=2),
    ]
    ops, finish = workloads._scenario_ops(scenarios)
    commands, inputs = workloads.configs(7)
    commands = dict(commands)
    ops += [workloads._command_op(name, commands[name])
            for name in ("run-packet-record-5ms", "fec-analyze")]
    return workloads.Workload("small", ops, finish, inputs)


@pytest.fixture(scope="module")
def sweeps(tmp_path_factory):
    """One untraced and one traced sweep of the small workload."""
    tmp = tmp_path_factory.mktemp("sweeps")
    w = small_workload()
    plain = workloads.run_sweep(w, tmp / "plain")
    tracer = tracing.Tracer()
    with tracer.installed():
        traced = workloads.run_sweep(w, tmp / "traced", tracer)
    return w, tmp, plain, traced, tracer


def test_digest_check_rejects_one_byte_change(sweeps):
    w, tmp, plain, _, _ = sweeps
    assert not plain.raised
    assert workloads.failed_operations(w, plain, plain.digests) == set()
    csv = tmp / "plain" / "outputs" / "small-idle.csv"
    data = bytearray(csv.read_bytes())
    data[-2] ^= 1
    csv.write_bytes(bytes(data))
    changed = replace(plain, digests=workloads.digest_tree(tmp / "plain" / "outputs"))
    failed = workloads.failed_operations(w, changed, plain.digests)
    assert failed == {op.name for op in w.operations if op.output == "small-idle.csv"}


def test_missing_output_fails_its_operation(sweeps):
    w, _, plain, _, _ = sweeps
    digests = {p: d for p, d in plain.digests.items() if not p.startswith("fec-analyze/")}
    failed = workloads.failed_operations(w, replace(plain, digests=digests), plain.digests)
    assert failed == {"fec-analyze"}


def test_traced_sweep_writes_identical_outputs(sweeps):
    _, _, plain, traced, _ = sweeps
    assert not traced.raised
    assert traced.digests == plain.digests


def test_self_times_sum_within_traced_sweep(sweeps):
    _, _, _, traced, tracer = sweeps
    seconds, calls = tracer.self_times()
    assert all(s >= 0 for s in seconds.values())
    assert sum(seconds.values()) <= traced.seconds
    for layer in ("turbo.generate_noise", "phy.channel_init", "phy.sample_frequency",
                  "modem.feed", "link.run_transfer", "link.crc16", "harness.run_one",
                  "harness.record_packets", "fec.comparison_rows", "cli.load_scenario"):
        assert calls[layer] > 0, layer


def test_counters_come_from_the_runs(sweeps):
    _, _, _, _, tracer = sweeps
    m = tracer.metrics()
    names = workloads.metric_units("per_layer")
    assert set(m) == {k for k in names if not k.startswith("trace.")}
    assert m["link.packets_sent"] >= m["link.retransmissions"] > 0
    assert 0 < m["link.delivery_ratio"] <= 1
    assert 0 < m["phy.horizon_used_ratio"] < 1
    assert m["modem.samples"] == m["phy.windows"]
    assert m["turbo.noise_intervals"] > 0


def test_tracer_restores_every_function(sweeps):
    assert harness.run_transfer is link.run_transfer
    assert phy.generate_noise is harness.generate_noise
    assert "traced" not in phy.SimulatedChannel.sample_frequency.__qualname__


def test_workload_seed_sets_simulator_seeds():
    assert workloads.load_sweep(5) == workloads.load_sweep(5)
    assert workloads.load_sweep(5) != workloads.load_sweep(6)
    seeds = [s.seeds for s in workloads.load_sweep(5)]
    assert len(set(seeds)) == len(seeds)
