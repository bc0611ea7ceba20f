"""The benchmark's traced pass still finds the simulator's entry points.

``perfbench/tracing.py`` replaces functions at the names their callers look
them up by. Installing the tracer fails on a target that no longer exists,
and a target that is still defined but no longer called through that name
would silently read zero. One short quiet-link run through the tracer
catches both.
"""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import tracing  # noqa: E402
import workloads  # noqa: E402
from turbochannel import harness  # noqa: E402

# every span on the path of one harness.run_one over a quiet link
RUN_ONE_SPANS = {
    "harness.run_one", "harness.build_simulation", "phy.channel_init",
    "phy.frequency_trace", "phy.sample_frequency", "phy.transmit",
    "modem.feed", "link.run_transfer", "link.crc16",
}


def test_traced_quiet_run_reaches_every_hook():
    s = harness.Scenario(name="quiet", policy=workloads.XEON,
                         bit_times_us=(1_000,), payload_bytes=16,
                         idle_noise=False, constant_cores=0)
    tracer = tracing.Tracer()
    with tracer.installed():
        result = harness.run_one(s, 1_000, 1)
    assert result.success
    _, calls = tracer.self_times()
    assert RUN_ONE_SPANS <= set(calls)
    counts = tracer.counts
    assert counts["link.packets_sent"] == result.packets_sent > 0
    assert counts["phy.horizon_us"] > 0
    # the counts of this run, pinned so a change of the trace format cannot
    # silently change what the tracer counts
    assert counts["phy.frequency_trace.segments"] == 111
    assert counts["phy.windows"] == 4173
    assert counts["modem.samples"] == 4173
    assert counts["modem.bits"] == 523
    # two frames and two acks, every one through the traced transmit name
    assert calls["phy.transmit"] == 4
