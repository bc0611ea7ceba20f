"""Traced pass: spans around the public entry points of each turbochannel layer.

Nothing under ``src/`` changes. Each function is replaced, for the length of
one traced sweep, at the name its caller looks it up by: ``phy`` calls
``generate_noise`` through its own module globals, ``harness`` calls
``run_transfer`` through its own, and so on. A span records its name, the
operation it belongs to, its parent span and its start and end. Spans stay in
memory and are written out once the benchmark ends.

Simulated counters come only from public return values: ``TransferStats``
(also from ``TransferFailed.stats``), ``SampleSeries`` lengths and ``missing``
masks, ``FrequencyTrace.segments``, ``ActivityTrace.total_intervals()`` and
``SimulatedChannel.horizon_us``.
"""

from __future__ import annotations

import contextlib
import functools
import weakref
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter_ns

import workloads
from turbochannel import cli, fec, harness, link, modem, phy

class Tracer:
    """Records spans and counters for one traced sweep."""

    def __init__(self):
        self.spans: list[tuple] = []   # (id, parent, operation, name, start_ns, end_ns)
        self.counts: Counter = Counter()
        self.operation = ""
        self._stack: list[int] = []
        # furthest sampled time per channel, bits already counted per assembler
        self._furthest = weakref.WeakKeyDictionary()
        self._bits_seen = weakref.WeakKeyDictionary()

    def wrap(self, name: str | None, fn, count=None):
        """``fn`` inside a span called ``name`` (no span when None); ``count``
        sees (args, result, exception) after the span has closed."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = exc = None
            if name is not None:
                span = len(tracer.spans)
                tracer.spans.append(None)
                parent = tracer._stack[-1] if tracer._stack else -1
                tracer._stack.append(span)
                start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as e:
                exc = e
                raise
            finally:
                if name is not None:
                    end = perf_counter_ns()
                    tracer._stack.pop()
                    tracer.spans[span] = (span, parent, tracer.operation, name,
                                          start, end)
                if count is not None:
                    count(args, result, exc)
        return traced

    # -- counters read from public return values --------------------------------

    def _noise(self, args, trace, exc):
        if trace is not None:
            self.counts["turbo.noise_intervals"] += trace.total_intervals()

    def _channel(self, args, result, exc):
        if exc is None:
            self.counts["phy.horizon_us"] += args[0].horizon_us

    def _trace(self, args, trace, exc):
        if trace is not None:
            self.counts["phy.frequency_trace.segments"] += len(trace.segments)

    def _series(self, args, series, exc):
        if series is None:
            return
        self.counts["phy.windows"] += len(series)
        self.counts["phy.missing_windows"] += int(series.missing.sum())
        sim = args[0]
        end = series.start_us + series.window_us * len(series)
        furthest = self._furthest.get(sim, 0)
        if end > furthest:
            self.counts["phy.used_us"] += end - furthest
            self._furthest[sim] = end

    def _feed(self, args, result, exc):
        self.counts["modem.samples"] += len(args[1])
        self._bits(args, result, exc)

    def _bits(self, args, result, exc):
        asm = args[0]
        self.counts["modem.bits"] += len(asm.bits) - self._bits_seen.get(asm, 0)
        self._bits_seen[asm] = len(asm.bits)

    def _transfer(self, args, result, exc):
        stats = result[0] if result is not None else getattr(exc, "stats", None)
        if stats is not None:
            self.counts["link.packets_sent"] += stats.packets_sent
            self.counts["link.packets_delivered"] += stats.packets_delivered
            self.counts["link.retransmissions"] += stats.retransmissions
            self.counts["link.acks_corrupted"] += stats.acks_corrupted

    # -- installing ---------------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Replace the traced functions for the duration of the block."""
        channel = phy.SimulatedChannel
        asm = modem.StreamAssembler
        targets = [
            (phy, "generate_noise", "turbo.generate_noise", self._noise),
            (harness, "generate_noise", "turbo.generate_noise", self._noise),
            (harness, "apply_policy", "turbo.apply_policy", None),
            (channel, "__init__", "phy.channel_init", self._channel),
            (channel, "frequency_trace", "phy.frequency_trace", self._trace),
            (channel, "sample_frequency", "phy.sample_frequency", self._series),
            (channel, "transmit", "phy.transmit", None),
            (channel, "transmit_marks", "phy.transmit", None),
            (asm, "feed", "modem.feed", self._feed),
            (asm, "end_segment", None, self._bits),
            (harness, "run_transfer", "link.run_transfer", self._transfer),
            (link, "crc16", "link.crc16", None),
            (harness, "build_simulation", "harness.build_simulation", None),
            (harness, "run_one", "harness.run_one", None),
            (harness, "scenario_noise_histogram", "harness.noise_histogram", None),
            (harness, "emit_csv", "harness.emit_csv", None),
            (cli, "emit_csv", "harness.emit_csv", None),
            (harness, "record_packet_outcomes", "harness.record_packets", None),
            (fec, "comparison_rows", "fec.comparison_rows", None),
            (cli, "load_scenario", "cli.load_scenario", None),
        ]
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in targets]
        try:
            for owner, attr, name, count in targets:
                setattr(owner, attr, self.wrap(name, owner.__dict__[attr], count))
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    # -- results ------------------------------------------------------------------

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Seconds of self time and number of calls, per span name."""
        child_ns: dict[int, int] = defaultdict(int)
        for span, parent, _, _, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        seconds: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for span, _, _, name, start, end in self.spans:
            seconds[name] += (end - start - child_ns[span]) / 1e9
            calls[name] += 1
        return seconds, calls

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of the sweep, without the ``trace.*`` ones.
        A ``.s`` metric is the self time of the span of that name."""
        seconds, calls = self.self_times()
        c = self.counts
        out = {}
        for metric, unit in workloads.metric_units("per_layer").items():
            if metric.startswith("trace."):
                continue
            if metric.endswith(".s"):
                out[metric] = seconds.get(metric[:-2], 0.0)
            elif metric.endswith(".calls"):
                out[metric] = calls.get(metric[:-6], 0)
            elif unit == "count":
                out[metric] = c[metric]
        out["phy.horizon_s"] = c["phy.horizon_us"] / 1e6
        out["phy.horizon_used_ratio"] = (c["phy.used_us"] / c["phy.horizon_us"]
                                         if c["phy.horizon_us"] else 0.0)
        out["link.delivery_ratio"] = (c["link.packets_delivered"] / c["link.packets_sent"]
                                      if c["link.packets_sent"] else 0.0)
        return out

    def write_spans(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as f:
            f.write("span,parent,operation,name,start_ns,end_ns\n")
            for span in self.spans:
                f.write(",".join(map(str, span)) + "\n")
