"""Simulated physical layer.

The channel is a shared turbo frequency: a transmitter raises the active-core
count to pull the frequency down, a receiver runs a counting loop on one core
and reads the frequency back as operations-per-window. This module owns the
simulation timeline (committed core activity), preemption bookkeeping, and
the counting-loop sampler. A hardware backend would implement the same
``ChannelBackend`` surface with busy loops and cycle-counter reads.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from operator import itemgetter
from typing import Protocol, Sequence

import numpy as np

from .turbo import (ActivityTrace, DomainError, FrequencyTrace, NoiseProfile,
                    TurboPolicy, _coalesce, _poisson_events, noise_stream,
                    turbo_frequency)
from .turbo import generate_noise  # noqa: F401  (perfbench wraps phy.generate_noise)

MIN_WINDOW_US = 100

# integrate in ~1s chunks so cumulative Hz*us sums stay exactly representable
_CHUNK_US = 1 << 20


@dataclass(frozen=True)
class TxSchedule:
    """On-off transmit marks: all ``tx_cores`` cores wake and sleep together."""

    entries: tuple[tuple[int, int], ...]
    tx_cores: int = 1

    def __post_init__(self):
        if self.tx_cores < 1:
            raise DomainError("tx_cores must be >= 1")
        prev_end = None
        for s, e in self.entries:
            if e <= s:
                raise DomainError("empty or inverted schedule entry")
            if prev_end is not None and s < prev_end:
                raise DomainError("schedule entries must be sorted and disjoint")
            prev_end = e

    def shifted(self, offset_us: int) -> "TxSchedule":
        return TxSchedule(tuple((s + offset_us, e + offset_us) for s, e in self.entries),
                          self.tx_cores)

    @property
    def end_us(self) -> int:
        return self.entries[-1][1] if self.entries else 0


@dataclass
class SampleSeries:
    """Counting-loop output: one count per fixed window, None where the
    sampling process was preempted for the whole window."""

    start_us: int
    window_us: int
    counts: np.ndarray          # int64
    missing: np.ndarray         # bool, parallel to counts

    @property
    def samples(self) -> list[tuple[int, int | None]]:
        out = []
        for i in range(len(self.counts)):
            t = self.start_us + i * self.window_us
            out.append((t, None if self.missing[i] else int(self.counts[i])))
        return out

    def __len__(self):
        return len(self.counts)

    def end_times(self) -> np.ndarray:
        n = len(self.counts)
        return self.start_us + self.window_us * (1 + np.arange(n, dtype=np.int64))


class ChannelBackend(Protocol):
    """Boundary a real-hardware backend would implement."""

    def transmit(self, endpoint: "ChannelEndpoint", schedule: TxSchedule) -> ActivityTrace: ...

    def sample_frequency(self, endpoint: "ChannelEndpoint", window_us: int,
                         span: tuple[int, int]) -> SampleSeries: ...


@dataclass(frozen=True)
class ChannelEndpoint:
    """Handle for one side of the channel inside a simulation."""

    sim: "SimulatedChannel"
    role: str                   # "sender" | "receiver"
    cores: tuple[int, ...]

    @property
    def sampling_core(self) -> int:
        return self.cores[0]


class SimulatedChannel:
    """One shared-frequency simulation instance.

    Core layout: transmit cores first, then the receiver's core, the rest is
    the pool for background noise. Background noise is expanded on demand:
    only as far as the furthest time a frequency query has reached (plus
    geometric headroom), never over the whole horizon up front. Must be
    driven from a single thread; distinct instances are independent.
    """

    def __init__(self, policy: TurboPolicy, horizon_us: int, *,
                 tx_core_count: int = 2,
                 ack_core_count: int | None = None,
                 noise: Sequence[NoiseProfile] = (),
                 seed: int = 0,
                 ops_per_cycle: float = 1.0,
                 jitter_sigma: float = 0.005,
                 sender_preempt_rate: float = 0.0,
                 receiver_preempt_rate: float = 0.0,
                 preempt_min_us: int = 1_000,
                 preempt_max_us: int = 10_000,
                 preempt_intervals: dict[str, Sequence[tuple[int, int]]] | None = None,
                 pinned_frequency_hz: int | None = None):
        if horizon_us <= 0:
            raise DomainError("horizon_us must be > 0")
        if tx_core_count < 1:
            raise DomainError("tx_core_count must be >= 1")
        if tx_core_count + 1 > policy.core_count:
            raise DomainError("transmitter and receiver need disjoint cores")
        self.policy = policy
        self.horizon_us = horizon_us
        self.seed = seed
        self.ops_per_cycle = ops_per_cycle
        self.jitter_sigma = jitter_sigma
        self.pinned_frequency_hz = pinned_frequency_hz

        tx_cores = tuple(range(tx_core_count))
        rx_core = tx_core_count
        self.sender = ChannelEndpoint(self, "sender", tx_cores)
        self.receiver = ChannelEndpoint(self, "receiver", (rx_core,))
        if ack_core_count is None:
            ack_core_count = tx_core_count
        if ack_core_count < 1 or ack_core_count - 1 > tx_core_count - 1:
            raise DomainError("ack cores exceed the idle cores available")
        # ack marks: the receiver's core plus helpers placed on transmitter
        # cores that are idle while the sender listens (tx core 0 is the
        # sender's own sampling core and stays reserved)
        self.ack_cores = (rx_core,) + tx_cores[1:ack_core_count]
        self.noise_pool = tuple(range(rx_core + 1, policy.core_count))

        # static background activity: preemptions now, noise as it is read
        self._static: list[np.ndarray] = [np.empty((0, 2), dtype=np.int64)
                                          for _ in range(policy.core_count)]
        # creating the streams checks the profiles; a pinned channel never
        # reads past the first interval
        streams = [noise_stream(p, horizon_us, policy.core_count, self.noise_pool)
                   for p in noise]
        self._noise = heapq.merge(*streams, key=itemgetter(1))
        self._noise_next = next(self._noise, None)
        self._frontier = 0  # every noise interval starting before it is in _static

        # preemption streams: suspensions of the covert processes; the core
        # keeps running (another task owns it), so they also count as activity
        self._preempts: dict[str, np.ndarray] = {}
        rates = {"sender": sender_preempt_rate, "receiver": receiver_preempt_rate}
        anchor = {"sender": tx_cores[0], "receiver": rx_core}
        for role, rate in rates.items():
            if preempt_intervals and role in preempt_intervals:
                ivs = np.asarray(sorted(preempt_intervals[role]), dtype=np.int64).reshape(-1, 2)
            else:
                ivs = self._draw_preempts(role, rate, preempt_min_us, preempt_max_us)
            self._preempts[role] = ivs
            if len(ivs):
                self._static[anchor[role]] = _union(self._static[anchor[role]], ivs)

        # committed (dynamic) activity, appended as the simulation advances;
        # kept apart from the static noise so late truncation stays possible
        self._dynamic: list[list[tuple[int, int]]] = [[] for _ in range(policy.core_count)]
        self._merged_cache: list[np.ndarray | None] = [None] * policy.core_count

        self._jitter = {
            "sender": np.random.default_rng([seed, 1]),
            "receiver": np.random.default_rng([seed, 2]),
        }
        grid_rng = random.Random(f"grid:{seed}")
        self._grid_frac = {"sender": grid_rng.random(), "receiver": grid_rng.random()}

    # -- timeline -----------------------------------------------------------

    def _draw_preempts(self, role: str, rate: float, lo: int, hi: int) -> np.ndarray:
        rng = random.Random(f"preempt:{role}:{self.seed}")
        out = [(t, min(t + rng.randint(lo, hi), self.horizon_us))
               for t in _poisson_events(rng, rate, self.horizon_us)]
        return np.asarray(out, dtype=np.int64).reshape(-1, 2)

    def _expand_noise(self, end_us: int):
        """Union into ``_static`` every noise interval starting before a new
        frontier >= ``end_us``. The frontier at least doubles each time, so
        the unions cost amortised linear time in the noise read."""
        frontier = min(self.horizon_us,
                       max(end_us, 2 * self._frontier, self._frontier + _CHUNK_US))
        fresh: dict[int, list[tuple[int, int]]] = {}
        item = self._noise_next
        while item is not None and item[1] < frontier:
            fresh.setdefault(item[0], []).append(item[1:])
            item = next(self._noise, None)
        self._noise_next = item
        self._frontier = frontier
        for core, ivs in fresh.items():
            self._static[core] = _union(self._static[core],
                                        np.asarray(ivs, dtype=np.int64))
            self._merged_cache[core] = None

    def preempt_intervals(self, role: str) -> np.ndarray:
        return self._preempts[role]

    def commit_core(self, core: int, start_us: int, end_us: int):
        """Record that a core is active on [start, end); overlaps are unioned."""
        if end_us <= start_us:
            return
        if not 0 <= start_us < end_us <= self.horizon_us:
            raise DomainError("activity outside the simulation horizon")
        self._dynamic[core].append((start_us, end_us))
        self._merged_cache[core] = None

    def truncate_core_after(self, core: int, t_us: int):
        """Clip this core's committed activity at t (the process stopped its
        current phase early); background noise is untouched."""
        kept = []
        for s, e in self._dynamic[core]:
            if s >= t_us:
                continue
            kept.append((s, min(e, t_us)))
        self._dynamic[core] = kept
        self._merged_cache[core] = None

    def _core_intervals(self, core: int) -> np.ndarray:
        if self._merged_cache[core] is None:
            dyn = np.asarray(sorted(self._dynamic[core]),
                             dtype=np.int64).reshape(-1, 2)
            self._merged_cache[core] = _union(self._static[core], dyn)
        return self._merged_cache[core]

    # -- frequency ----------------------------------------------------------

    def frequency_trace(self, start_us: int, end_us: int) -> FrequencyTrace:
        """Effective frequency over [start, end) given everything committed.

        The PCU state is reconstructed from a bounded lookback, long enough
        to cover one period plus any pending recovery ramp.
        """
        if self.pinned_frequency_hz is not None:
            return FrequencyTrace([(start_us, self.pinned_frequency_hz)], end_us)
        if end_us > self._frontier:
            self._expand_noise(end_us)
        policy = self.policy
        lookback = policy.recovery_delay_us + 2 * policy.pcu_period_us
        t0 = max(0, start_us - lookback)

        deltas: list[tuple[int, int]] = []
        for core in range(policy.core_count):
            iv = self._core_intervals(core)
            if not len(iv):
                continue
            lo = int(np.searchsorted(iv[:, 1], t0, side="right"))
            hi = int(np.searchsorted(iv[:, 0], end_us, side="left"))
            for s, e in iv[lo:hi]:
                deltas.append((max(int(s), t0), 1))
                deltas.append((min(int(e), end_us), -1))
        deltas.sort(key=lambda d: (d[0], d[1]))

        times = [t0]
        counts = [0]
        acc = 0
        for t, d in deltas:
            acc += d
            if t == times[-1]:
                counts[-1] = acc
            else:
                times.append(t)
                counts.append(acc)

        segments = _pcu_run(policy, times, counts, t0, end_us)
        # clip to the requested span
        clipped: list[tuple[int, int]] = []
        for i, (s, f) in enumerate(segments):
            nxt = segments[i + 1][0] if i + 1 < len(segments) else end_us
            if nxt <= start_us or s >= end_us:
                continue
            clipped.append((max(s, start_us), f))
        if not clipped:
            clipped = [(start_us, segments[-1][1])]
        if clipped[0][0] != start_us:
            clipped.insert(0, (start_us, clipped[0][1]))
        return FrequencyTrace(clipped, end_us)

    # -- backend operations ---------------------------------------------------

    def shift_for_preemption(self, times: Sequence[int], role: str,
                             anchor_us: int) -> list[int]:
        """Map process-progress times to wall times: progress pauses while the
        process is preempted, so every later transition slips by the overlap."""
        preempts = self._preempts[role]
        out = []
        delay = 0
        idx = 0
        # skip preemptions that ended before the anchor
        while idx < len(preempts) and preempts[idx][1] <= anchor_us:
            idx += 1
        j = idx
        for x in times:
            while j < len(preempts) and preempts[j][0] <= x + delay:
                # only the part of the suspension after the anchor stalls progress
                delay += int(preempts[j][1] - max(int(preempts[j][0]), anchor_us))
                j += 1
            out.append(x + delay)
        return out

    def transmit(self, endpoint: ChannelEndpoint, schedule: TxSchedule,
                 anchor_us: int | None = None) -> ActivityTrace:
        """Drive the transmit cores through a schedule and commit the activity.

        Transitions are delayed by any preemption of the transmitting process;
        the returned trace is the transmitter's contribution to the timeline.
        """
        if endpoint.role != "sender":
            raise DomainError("transmit requires a sender endpoint")
        if schedule.entries and schedule.end_us > self.horizon_us:
            raise DomainError("schedule exceeds the simulation horizon")
        if schedule.tx_cores > len(endpoint.cores):
            raise DomainError("schedule uses more cores than the endpoint owns")
        if not schedule.entries:
            return ActivityTrace(self.policy.core_count, self.horizon_us)
        anchor = schedule.entries[0][0] if anchor_us is None else anchor_us
        flat = [t for entry in schedule.entries for t in entry]
        shifted = self.shift_for_preemption(flat, "sender", anchor)
        entries = [(shifted[i], min(shifted[i + 1], self.horizon_us))
                   for i in range(0, len(shifted), 2)
                   if shifted[i] < min(shifted[i + 1], self.horizon_us)]
        cores = endpoint.cores[: schedule.tx_cores]
        for s, e in entries:
            for c in cores:
                self.commit_core(c, s, e)
        ivs = {c: list(entries) for c in cores}
        return ActivityTrace(self.policy.core_count, self.horizon_us, ivs)

    def transmit_marks(self, cores: Sequence[int], entries: Sequence[tuple[int, int]],
                       role: str, anchor_us: int) -> int:
        """Commit mark activity for an arbitrary core set (acknowledgement
        path: the listening side's core plus idle helper cores). Returns the
        wall time the last mark ends (or the anchor for all-zero payloads)."""
        if not entries:
            return anchor_us
        flat = [t for entry in entries for t in entry]
        shifted = self.shift_for_preemption(flat, role, anchor_us)
        end = anchor_us
        for i in range(0, len(shifted), 2):
            s, e = shifted[i], min(shifted[i + 1], self.horizon_us)
            end = max(end, e)
            if s < self.horizon_us:
                for c in cores:
                    self.commit_core(c, s, e)
        return end

    def sample_frequency(self, endpoint: ChannelEndpoint, window_us: int,
                         span: tuple[int, int]) -> SampleSeries:
        """Run the counting loop over a time span.

        Each window's count is the frequency integral over the window scaled
        by ops_per_cycle, reduced by any partial preemption of the sampling
        process and multiplied by measurement jitter. Windows fully inside a
        preemption are missing. The sampling core is active (and counted)
        for the whole span.
        """
        if window_us < MIN_WINDOW_US:
            raise DomainError(f"window must be >= {MIN_WINDOW_US} us")
        a, b = span
        if not 0 <= a < b <= self.horizon_us:
            raise DomainError("span outside the simulation horizon")
        role = endpoint.role
        self.commit_core(endpoint.sampling_core, a, b)

        phase = int(self._grid_frac[role] * window_us)
        first = phase + -((phase - a) // window_us) * window_us  # first boundary >= a
        n = (b - first) // window_us
        if n <= 0:
            return SampleSeries(first, window_us, np.empty(0, dtype=np.int64),
                                np.empty(0, dtype=bool))
        bounds = first + window_us * np.arange(n + 1, dtype=np.int64)

        trace = self.frequency_trace(int(bounds[0]), int(bounds[-1]))
        seg_t, seg_f = trace.boundaries()
        integrals = _window_integrals(seg_t, seg_f, bounds)

        missing = np.zeros(n, dtype=bool)
        preempts = self._preempts[role]
        if len(preempts):
            lo = int(np.searchsorted(preempts[:, 1], int(bounds[0]), side="right"))
            hi = int(np.searchsorted(preempts[:, 0], int(bounds[-1]), side="left"))
            for ps, pe in preempts[lo:hi]:
                ps, pe = max(int(ps), int(bounds[0])), min(int(pe), int(bounds[-1]))
                if pe <= ps:
                    continue
                w0 = int((ps - bounds[0]) // window_us)
                w1 = int(-((bounds[0] - pe) // window_us))  # ceil
                for w in range(w0, min(w1, n)):
                    ws = int(bounds[w])
                    we = int(bounds[w + 1])
                    os_, oe = max(ps, ws), min(pe, we)
                    if oe <= os_:
                        continue
                    integrals[w] -= _integral_between(seg_t, seg_f, os_, oe)
                    if os_ == ws and oe == we:
                        missing[w] = True

        counts = integrals * (self.ops_per_cycle / 1e6)
        if self.jitter_sigma > 0:
            g = self._jitter[role].normal(0.0, self.jitter_sigma, size=n)
            counts = counts * (1.0 + g)
        counts = np.rint(np.maximum(counts, 0.0)).astype(np.int64)
        counts[missing] = 0
        return SampleSeries(int(bounds[0]), window_us, counts, missing)


def transmit(endpoint: ChannelEndpoint, schedule: TxSchedule,
             anchor_us: int | None = None) -> ActivityTrace:
    return endpoint.sim.transmit(endpoint, schedule, anchor_us)


def sample_frequency(endpoint: ChannelEndpoint, window_us: int,
                     span: tuple[int, int]) -> SampleSeries:
    return endpoint.sim.sample_frequency(endpoint, window_us, span)


def _union(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if len(a) == 0:
        return _coalesce(b)
    if len(b) == 0:
        return a
    return _coalesce(np.concatenate([a, b]))


def _pcu_run(policy: TurboPolicy, times: Sequence[int], counts: Sequence[int],
             t_start: int, t_end: int) -> list[tuple[int, int]]:
    """Walk PCU decisions over an active-count step function.

    ``times``/``counts`` describe active counts on [times[i], times[i+1]);
    decisions happen at absolute ticks k*pcu_period. Downward changes apply
    at the deciding tick, upward ones after the recovery delay.
    """
    period = policy.pcu_period_us
    events: list[tuple[int, int]] = []
    last_target = None
    n = len(times)
    for i in range(n):
        t0 = max(int(times[i]), t_start)
        t1 = int(times[i + 1]) if i + 1 < n else t_end
        if t0 >= t_end:
            break
        if t1 <= t0:
            continue
        tick = -(-t0 // period) * period
        if tick >= min(t1, t_end):
            continue
        target = turbo_frequency(policy, int(counts[i]))
        if target != last_target:
            events.append((tick, target))
            last_target = target

    segments: list[tuple[int, int]] = []
    current = None
    pending: tuple[int, int] | None = None

    def emit(t: int, f: int):
        nonlocal current
        if segments and segments[-1][0] == t:
            segments[-1] = (t, f)
            # collapse if the rewrite made it equal to its predecessor
            if len(segments) >= 2 and segments[-2][1] == f:
                segments.pop()
        elif not segments or segments[-1][1] != f:
            segments.append((t, f))
        current = segments[-1][1]

    for tick, target in events:
        if pending is not None and pending[1] <= tick:
            emit(pending[1], pending[0])
            pending = None
        if current is None:
            emit(tick, target)
        elif target < current:
            emit(tick, target)
            pending = None
        elif target > current:
            if pending is None or pending[0] != target:
                pending = (target, tick + policy.recovery_delay_us)
        else:
            pending = None
    if pending is not None and pending[1] < t_end:
        emit(pending[1], pending[0])

    if not segments:
        segments = [(t_start, turbo_frequency(policy, 0))]
    if segments[0][0] > t_start:
        segments.insert(0, (t_start, segments[0][1]))
    return segments


def _window_integrals(seg_t: np.ndarray, seg_f: np.ndarray,
                      bounds: np.ndarray) -> np.ndarray:
    """Integral of a piecewise-constant frequency between consecutive bounds,
    chunked so cumulative sums stay exactly representable in float64."""
    out = np.zeros(len(bounds) - 1, dtype=np.float64)
    start = int(bounds[0])
    end = int(bounds[-1])
    fbounds = bounds.astype(np.float64)
    chunk_lo = start
    while chunk_lo < end:
        chunk_hi = min(chunk_lo + _CHUNK_US, end)
        t, cum = _cumulative(seg_t, seg_f, chunk_lo, chunk_hi)
        clipped = np.clip(fbounds, float(chunk_lo), float(chunk_hi))
        out += np.diff(np.interp(clipped, t, cum))
        chunk_lo = chunk_hi
    return out


def _cumulative(seg_t: np.ndarray, seg_f: np.ndarray,
                lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """Cumulative integral (relative to ``lo``) of the trace on [lo, hi]."""
    i0 = int(np.searchsorted(seg_t, lo, side="right")) - 1
    i1 = int(np.searchsorted(seg_t, hi, side="left"))
    t = seg_t[i0:i1].astype(np.float64).copy()
    f = seg_f[i0:i1].astype(np.float64)
    t[0] = float(lo)
    t = np.append(t, float(hi))
    cum = np.concatenate([[0.0], np.cumsum(f * np.diff(t))])
    return t, cum


def _integral_between(seg_t: np.ndarray, seg_f: np.ndarray, a: int, b: int) -> float:
    if b <= a:
        return 0.0
    t, cum = _cumulative(seg_t, seg_f, a, b)
    return float(cum[-1])
