"""Simulated physical layer.

The channel is a shared turbo frequency: a transmitter raises the active-core
count to pull the frequency down, a receiver runs a counting loop on one core
and reads the frequency back as operations-per-window. This module owns the
simulation timeline (committed core activity), preemption bookkeeping, and
the counting-loop sampler.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .turbo import (DomainError, FrequencyTrace, NoiseBlock, NoiseProfile,
                    TurboPolicy, _by_core, _coalesce, _poisson_events,
                    noise_stream, pcu_walk, step_function)
from .turbo import generate_noise  # noqa: F401  (perfbench wraps phy.generate_noise)

MIN_WINDOW_US = 100

# a noise expansion moves the frontier on by at least this much (about 1 s),
# so that queries just past the frontier do not each expand noise
_MIN_FRONTIER_STEP_US = 1 << 20


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


@dataclass(frozen=True)
class ChannelEndpoint:
    """Handle for one side of the channel inside a simulation."""

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
        if not (math.isfinite(ops_per_cycle) and ops_per_cycle > 0):
            raise DomainError("ops_per_cycle must be finite and > 0")
        if not (math.isfinite(jitter_sigma) and jitter_sigma >= 0):
            raise DomainError("jitter_sigma must be finite and >= 0")
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
        self.sender = ChannelEndpoint("sender", tx_cores)
        self.receiver = ChannelEndpoint("receiver", (rx_core,))
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
        # reads them. Each stream keeps the part of its last block that
        # starts at or after the frontier.
        self._noise = [noise_stream(p, horizon_us, policy.core_count, self.noise_pool)
                       for p in noise]
        self._pending: list[NoiseBlock | None] = [None] * len(self._noise)
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
            self._static[anchor[role]] = _merge_suffix(self._static[anchor[role]], ivs)

        # committed (dynamic) activity, kept apart from the static activity so
        # late truncation stays possible. A commit waits in _queued until the
        # core is read, then joins _merged (static and committed activity,
        # coalesced) and waits in _unfolded until a truncation folds it into
        # _committed. While a core has no commits, _merged[core] is
        # _static[core] itself.
        self._queued: list[list[tuple[int, int]]] = [[] for _ in range(policy.core_count)]
        self._unfolded: list[list[np.ndarray]] = [[] for _ in range(policy.core_count)]
        self._committed: list[np.ndarray] = [np.empty((0, 2), dtype=np.int64)
                                             for _ in range(policy.core_count)]
        self._merged: list[np.ndarray] = list(self._static)

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
        """Merge into ``_static`` (and ``_merged``) every noise interval
        starting before a new frontier >= ``end_us``. The frontier at least
        doubles each time, and each merge re-coalesces only the intervals
        from the old frontier on and those reaching past it."""
        frontier = min(self.horizon_us,
                       max(end_us, 2 * self._frontier, self._frontier + _MIN_FRONTIER_STEP_US))
        fresh: list[NoiseBlock] = []
        for i, stream in enumerate(self._noise):
            block = self._pending[i] or next(stream, None)
            while block is not None:
                cores, starts, ends = block
                k = int(np.searchsorted(starts, frontier, side="left"))
                fresh.append((cores[:k], starts[:k], ends[:k]))
                if k < len(starts):
                    block = (cores[k:], starts[k:], ends[k:])
                    break
                block = next(stream, None)
            self._pending[i] = block
        self._frontier = frontier
        for core, ivs in _by_core(fresh, self.noise_pool):
            static = self._static[core]
            self._static[core] = _merge_suffix(static, ivs)
            merged = self._merged[core]
            self._merged[core] = (self._static[core] if merged is static
                                  else _merge_suffix(merged, ivs))

    def preempt_intervals(self, role: str) -> np.ndarray:
        return self._preempts[role]

    def commit_core(self, core: int, start_us: int, end_us: int):
        """Record that a core is active on [start, end); overlaps are unioned."""
        if end_us <= start_us:
            return
        if not 0 <= start_us < end_us <= self.horizon_us:
            raise DomainError("activity outside the simulation horizon")
        self._queued[core].append((start_us, end_us))

    def truncate_core_after(self, core: int, t_us: int):
        """Clip this core's committed activity at t (the process stopped its
        current phase early); background noise is untouched."""
        merged = self._core_intervals(core)
        committed = self._committed[core]
        if self._unfolded[core]:
            committed = _merge_suffix(committed, np.concatenate(self._unfolded[core]))
            self._unfolded[core] = []
        if not len(committed) or committed[-1, 1] <= t_us:
            self._committed[core] = committed
            return
        # rows starting before t stay; only the last of them can reach past t
        n = int(np.searchsorted(committed[:, 0], t_us, side="left"))
        committed = committed[:n].copy()
        if n:
            committed[-1, 1] = min(int(committed[-1, 1]), t_us)
        self._committed[core] = committed
        # merged intervals ending at or before t keep their rows. Every row
        # lies inside one merged interval, so the rows from the first merged
        # interval ending after t on rebuild the rest; committed rows there
        # follow the kept intervals with a gap, so only static rows need merging
        k = int(np.searchsorted(merged[:, 1], t_us, side="right"))
        start = merged[k, 0]
        static = self._static[core]
        kept = np.concatenate([merged[:k],
                               committed[int(np.searchsorted(committed[:, 0], start)):]])
        rest = static[int(np.searchsorted(static[:, 0], start)):]
        self._merged[core] = _merge_suffix(kept, rest)

    def _core_intervals(self, core: int) -> np.ndarray:
        """Static and committed activity of a core, sorted and coalesced."""
        queued = self._queued[core]
        if queued:
            rows = np.array(queued, dtype=np.int64)
            self._merged[core] = _merge_suffix(self._merged[core], rows)
            self._unfolded[core].append(rows)
            self._queued[core] = []
        return self._merged[core]

    # -- frequency ----------------------------------------------------------

    def frequency_trace(self, start_us: int, end_us: int) -> FrequencyTrace:
        """Effective frequency over [start, end) given everything committed.

        ``pcu_walk`` runs from a lookback that starts at one period plus a
        recovery ramp and doubles until the walk is exact from ``start_us``
        on; at time 0 it is exact throughout.
        """
        if self.pinned_frequency_hz is not None:
            return FrequencyTrace([(start_us, self.pinned_frequency_hz)], end_us)
        if end_us > self._frontier:
            self._expand_noise(end_us)
        policy = self.policy
        lookback = policy.recovery_delay_us + 2 * policy.pcu_period_us
        while True:
            t0 = max(0, start_us - lookback)
            spans = []
            for core in range(policy.core_count):
                iv = self._core_intervals(core)
                lo = int(np.searchsorted(iv[:, 1], t0, side="right"))
                hi = int(np.searchsorted(iv[:, 0], end_us, side="left"))
                spans.append(iv[lo:hi])
            live = np.concatenate(spans)
            times, counts = step_function(np.maximum(live[:, 0], t0),
                                          np.minimum(live[:, 1], end_us), t0)
            segments, exact_from = pcu_walk(policy, times, counts, end_us)
            if exact_from is not None and exact_from <= start_us:
                break
            lookback *= 2
        # the walk starts at t0 <= start_us: keep the segment holding start_us
        # on, and start it there (the walk's array is this trace's own)
        segments = segments[segments[:, 0].searchsorted(start_us, side="right") - 1:]
        segments[0, 0] = start_us
        return FrequencyTrace(segments, end_us)

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
                 anchor_us: int | None = None) -> list[tuple[int, int]]:
        """Drive the transmit cores through a schedule and commit the activity.

        Transitions are delayed by any preemption of the transmitting process.
        Returns the committed wall-time entries, the same on every transmit
        core.
        """
        if endpoint.role != "sender":
            raise DomainError("transmit requires a sender endpoint")
        if schedule.entries and schedule.end_us > self.horizon_us:
            raise DomainError("schedule exceeds the simulation horizon")
        if schedule.tx_cores > len(endpoint.cores):
            raise DomainError("schedule uses more cores than the endpoint owns")
        if not schedule.entries:
            return []
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
        return entries

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
        by ops_per_cycle and multiplied by measurement jitter. Every
        suspension of the sampling process takes its own overlap out of the
        integral, so overlapping suspensions take their overlap out twice.
        A window that one suspension covers whole is missing. The sampling
        core is active (and counted) for the whole span.
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

        t0, t1 = int(bounds[0]), int(bounds[-1])
        seg_t, seg_f = self.frequency_trace(t0, t1).segments.T
        # the loop runs at frequency * (1 - depth), where depth counts the
        # suspensions in force; suspensions are sorted by start, and their
        # ends only by prefix maximum, since one may end inside another
        preempts = self._preempts[role]
        lo = int(np.searchsorted(np.maximum.accumulate(preempts[:, 1]), t0, side="right"))
        hi = int(np.searchsorted(preempts[:, 0], t1, side="left"))
        live = np.clip(preempts[lo:hi], t0, t1)
        depth_t, depth = step_function(live[:, 0], live[:, 1], t0)
        # merge the two breakpoint lists by sorting (np.unique would import
        # numpy.ma, 1.6 MB, on its first call)
        rate_t = np.sort(np.concatenate([seg_t, depth_t]))
        rate_t = rate_t[np.append(rate_t[1:] != rate_t[:-1], True)]
        rate = (seg_f[np.searchsorted(seg_t, rate_t, side="right") - 1]
                * (1 - depth[np.searchsorted(depth_t, rate_t, side="right") - 1]))
        integrals = _window_integrals(rate_t, rate, bounds)
        # a window is missing when one suspension starting at or before it
        # reaches its end
        reach = np.maximum.accumulate(np.append(t0, live[:, 1]))
        missing = reach[np.searchsorted(live[:, 0], bounds[:-1], side="right")] >= bounds[1:]

        counts = integrals * (self.ops_per_cycle / 1e6)
        if self.jitter_sigma > 0:
            g = self._jitter[role].normal(0.0, self.jitter_sigma, size=n)
            counts = counts * (1.0 + g)
        counts = np.rint(np.maximum(counts, 0.0)).astype(np.int64)
        counts[missing] = 0
        return SampleSeries(int(bounds[0]), window_us, counts, missing)


def _merge_suffix(merged: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Union of coalesced ``merged`` and any ``rows``, coalesced. Intervals
    of ``merged`` ending before the earliest row starts cannot meet a row,
    so only the suffix from there on is re-coalesced; with no rows,
    ``merged`` itself is returned."""
    if len(rows) == 0:
        return merged
    # the first interval ending at or after the earliest start: touching merges
    k = int(np.searchsorted(merged[:, 1], rows[:, 0].min(), side="left"))
    suffix = _coalesce(np.concatenate([merged[k:], rows]) if k < len(merged) else rows)
    return np.concatenate([merged[:k], suffix]) if k else suffix


def _window_integrals(seg_t: np.ndarray, seg_f: np.ndarray,
                      bounds: np.ndarray) -> np.ndarray:
    """Integral (Hz*us) of a piecewise-constant frequency between consecutive
    bounds, in exact int64; ``seg_t[0]`` may not lie after ``bounds[0]``.

    The cumulative integral at each bound may pass 2**63 on a long span, and
    int64 array arithmetic then wraps silently. Sums, products and
    differences all wrap alike, so each window's integral is still exact
    while it fits in int64 itself.
    """
    i = np.searchsorted(seg_t, bounds, side="right") - 1
    cum = np.append(0, np.cumsum(seg_f[:-1] * np.diff(seg_t)))
    return np.diff(cum[i] + seg_f[i] * (bounds - seg_t[i]))
