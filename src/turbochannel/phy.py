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
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, Sequence

import numpy as np

from .turbo import (DomainError, FrequencyTrace, NoiseBlock, NoiseProfile,
                    TurboPolicy, _by_core, _coalesce, _poisson_events,
                    noise_stream, pcu_walk, step_function)
from .turbo import generate_noise  # noqa: F401  (perfbench wraps phy.generate_noise)

MIN_WINDOW_US = 100

# a noise expansion moves the frontier on by at least this much (about 1 s),
# so that queries just past the frontier do not each expand noise
_MIN_FRONTIER_STEP_US = 1 << 20


@dataclass
class SampleSeries:
    """Counting-loop output: one count per fixed window, None where the
    sampling process was preempted for the whole window."""

    start_us: int
    window_us: int
    counts: np.ndarray          # int64
    missing: np.ndarray         # bool, parallel to counts

    def __len__(self):
        return len(self.counts)

    def end_times(self) -> np.ndarray:
        a, w = self.start_us, self.window_us
        return np.arange(a + w, a + w * (len(self.counts) + 1), w, dtype=np.int64)


@dataclass(eq=False)
class ChannelEndpoint:
    """One covert process inside a simulation: the core it samples on, the
    cores it marks with (its own sampling core first), its suspensions, its
    measurement jitter and the phase of its sampling grid."""

    sampling_core: int
    mark_cores: tuple[int, ...]
    # sorted by start, with the furthest end reached so far (one may end
    # inside another)
    suspensions: list[tuple[int, int]]
    reach: list[int]
    jitter: np.random.Generator
    grid_frac: float            # grid phase, as a fraction of a window

    def suspended_in(self, t0: int, t1: int) -> tuple[int, int]:
        """Index range of the suspensions that may overlap [t0, t1): from the
        first to reach past t0 up to the first starting at or after t1."""
        # (t1,) sorts before every row that starts at t1
        return bisect_right(self.reach, t0), bisect_left(self.suspensions, (t1,))

    def shift_for_preemption(self, times: Sequence[int], anchor_us: int) -> list[int]:
        """Map process-progress times to wall times: progress pauses while the
        process is preempted, so every later transition slips by the overlap."""
        rows = self.suspensions
        out = []
        delay = 0
        # skip suspensions that ended before the anchor: the first to end
        # after it is the first whose reach passes it
        j = bisect_right(self.reach, anchor_us)
        for x in times:
            while j < len(rows) and rows[j][0] <= x + delay:
                # only the part of the suspension after the anchor stalls progress
                s, e = rows[j]
                delay += e - max(s, anchor_us)
                j += 1
            out.append(x + delay)
        return out


class SimulatedChannel:
    """One shared-frequency simulation instance.

    Core layout: transmit cores first, then the receiver's core, the rest is
    the pool for background noise. Background noise is expanded on demand:
    only as far as the furthest time a frequency query has reached (plus
    geometric headroom), never over the whole horizon up front. A core's
    activity comes from three sources kept apart: its noise, its commits
    and (on a sampling core) its process's suspensions; a query unions them
    only over its own span (``_live``). Must be driven from a single
    thread; distinct instances are independent.
    """

    def __init__(self, policy: TurboPolicy, horizon_us: int, *,
                 tx_core_count: int = 2,
                 ack_core_count: int | None = None,
                 noise: Sequence[NoiseProfile] = (),
                 seed: int = 0,
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
        if not (math.isfinite(jitter_sigma) and jitter_sigma >= 0):
            raise DomainError("jitter_sigma must be finite and >= 0")
        if tx_core_count + 1 > policy.core_count:
            raise DomainError("transmitter and receiver need disjoint cores")
        self.policy = policy
        self.horizon_us = horizon_us
        self.seed = seed
        self.jitter_sigma = jitter_sigma
        self.pinned_frequency_hz = pinned_frequency_hz

        tx_cores = tuple(range(tx_core_count))
        rx_core = tx_core_count
        if ack_core_count is None:
            ack_core_count = tx_core_count
        if ack_core_count < 1 or ack_core_count - 1 > tx_core_count - 1:
            raise DomainError("ack cores exceed the idle cores available")
        self.noise_pool = tuple(range(rx_core + 1, policy.core_count))

        # background noise of each core, coalesced, merged in as it is read
        self._static = [np.empty((0, 2), dtype=np.int64)] * policy.core_count
        # creating the streams checks the profiles; a pinned channel never
        # reads them. Each stream keeps the part of its last block that
        # starts at or after the frontier.
        self._noise = [noise_stream(p, horizon_us, policy.core_count, self.noise_pool)
                       for p in noise]
        self._pending: list[NoiseBlock | None] = [None] * len(self._noise)
        self._frontier = 0  # every noise interval starting before it is in _static

        # the two covert processes. The receiver marks acks with its own
        # core plus helpers placed on transmitter cores that are idle while
        # the sender listens (tx core 0 is the sender's own sampling core
        # and stays reserved). A sampling core keeps running while its
        # process is suspended (another task owns it), so the suspensions
        # also count as its activity.
        grid_rng = random.Random(f"grid:{seed}")
        endpoints = []
        for stream, (role, cores, rate) in enumerate((
                ("sender", tx_cores, sender_preempt_rate),
                ("receiver", (rx_core,) + tx_cores[1:ack_core_count], receiver_preempt_rate),
        ), 1):
            if preempt_intervals and role in preempt_intervals:
                rows = sorted((int(s), int(e)) for s, e in preempt_intervals[role])
            else:
                rows = self._draw_preempts(role, rate, preempt_min_us, preempt_max_us)
            endpoints.append(ChannelEndpoint(
                cores[0], cores, rows, list(accumulate((e for _, e in rows), max)),
                np.random.default_rng([seed, stream]), grid_rng.random()))
        self.sender, self.receiver = endpoints
        self._anchored = {e.sampling_core: e for e in endpoints}

        # committed activity of each core: sorted, coalesced start and end
        # columns, kept apart from noise and suspensions so that a truncation
        # clips only them
        self._starts: list[list[int]] = [[] for _ in range(policy.core_count)]
        self._ends: list[list[int]] = [[] for _ in range(policy.core_count)]

    # -- timeline -----------------------------------------------------------

    def _draw_preempts(self, role: str, rate: float, lo: int, hi: int) -> list[tuple[int, int]]:
        rng = random.Random(f"preempt:{role}:{self.seed}")
        return [(t, min(t + rng.randint(lo, hi), self.horizon_us))
                for t in _poisson_events(rng, rate, self.horizon_us)]

    def _expand_noise(self, end_us: int):
        """Merge into ``_static`` every noise interval starting before a new
        frontier >= ``end_us``. The frontier at least doubles each time, and
        each merge re-coalesces only the intervals from the old frontier on
        and those reaching past it."""
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
            rows = self._static[core] = _merge_suffix(self._static[core], ivs)
            rows.flags.writeable = False  # a query reads slices of it

    def commit_core(self, core: int, start_us: int, end_us: int):
        """Record that a core is active on [start, end); overlaps are unioned."""
        if end_us <= start_us:
            return
        if not 0 <= start_us < end_us <= self.horizon_us:
            raise DomainError("activity outside the simulation horizon")
        starts, ends = self._starts[core], self._ends[core]
        if not ends or start_us > ends[-1]:  # in order: a new last row
            starts.append(start_us)
            ends.append(end_us)
            return
        # the rows it touches or overlaps become one row; with none, it is
        # inserted between them
        i = bisect_left(ends, start_us)
        j = bisect_right(starts, end_us, i)
        if i < j:
            start_us, end_us = min(start_us, starts[i]), max(end_us, ends[j - 1])
        starts[i:j] = [start_us]
        ends[i:j] = [end_us]

    def truncate_core_after(self, core: int, t_us: int):
        """Clip this core's committed activity at t (the process stopped its
        current phase early); its noise and suspensions are kept apart and
        are untouched."""
        starts, ends = self._starts[core], self._ends[core]
        n = bisect_left(starts, t_us)  # rows starting before t stay
        del starts[n:], ends[n:]
        if n and ends[-1] > t_us:
            ends[-1] = t_us

    def _live(self, t0: int, t1: int, cores: Iterable[int]) -> np.ndarray:
        """Start and end columns, one fresh (2, n) array, of the rows of
        ``cores`` that reach into [t0, t1), starts clipped at t0: noise,
        commits and suspensions. A core's rows are coalesced where more than
        one source, or a suspension (they may overlap), reaches the span."""
        starts, ends, parts = [], [], []
        for core in cores:
            noise = self._static[core]
            if len(noise):  # most pool cores of a quiet channel hold none
                noise = noise[noise[:, 1].searchsorted(t0, side="right"):
                              noise[:, 0].searchsorted(t1, side="left")]
            cs, ce = self._starts[core], self._ends[core]
            i, j = bisect_right(ce, t0), bisect_left(cs, t1)
            endpoint = self._anchored.get(core)
            lo, hi = endpoint.suspended_in(t0, t1) if endpoint else (0, 0)
            if lo < hi or len(noise) and i < j:
                rows = [noise, np.array((cs[i:j], ce[i:j]), dtype=np.int64).T]
                if lo < hi:
                    rows.append(np.array(endpoint.suspensions[lo:hi], dtype=np.int64))
                parts.append(_coalesce(np.concatenate(rows)).T)
            elif i < j:
                starts += cs[i:j]
                ends += ce[i:j]
            elif len(noise):
                parts.append(noise.T)  # a read-only view, copied below
        live = np.concatenate([np.array((starts, ends), dtype=np.int64), *parts], axis=1)
        np.maximum(live[0], t0, out=live[0])
        return live

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
            live = self._live(t0, end_us, range(policy.core_count))
            times, counts = step_function(*live, t0)
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

    def transmit(self, endpoint: ChannelEndpoint, entries: Sequence[tuple[int, int]],
                 anchor_us: int) -> list[tuple[int, int]]:
        """Drive the endpoint's mark cores through on-off marks and commit the
        activity: the sender's for a frame, the receiver's for an ack.

        Transitions are delayed by any preemption of that process since
        ``anchor_us``, and marks are clipped at the horizon. Returns the
        committed wall-time entries, the same on every core.
        """
        shifted = endpoint.shift_for_preemption([t for entry in entries for t in entry],
                                                anchor_us)
        committed = []
        for s, e in zip(shifted[::2], shifted[1::2]):
            e = min(e, self.horizon_us)
            if s < e:
                committed.append((s, e))
                for c in endpoint.mark_cores:
                    self.commit_core(c, s, e)
        return committed

    transmit_marks = transmit  # only for perfbench's tracer, which wraps this name too

    def sample_frequency(self, endpoint: ChannelEndpoint, window_us: int,
                         span: tuple[int, int]) -> SampleSeries:
        """Run the counting loop over a time span.

        Each window's count is the frequency integral over the window, one
        operation per cycle, multiplied by measurement jitter. Every
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
        self.commit_core(endpoint.sampling_core, a, b)

        phase = int(endpoint.grid_frac * window_us)
        first = phase + -((phase - a) // window_us) * window_us  # first boundary >= a
        n = (b - first) // window_us
        if n <= 0:
            return SampleSeries(first, window_us, np.empty(0, dtype=np.int64),
                                np.empty(0, dtype=bool))
        bounds = np.arange(first, first + window_us * (n + 1), window_us, dtype=np.int64)

        t0, t1 = int(bounds[0]), int(bounds[-1])
        seg_t, seg_f = self.frequency_trace(t0, t1).segments.T
        rate_t, rate, missing = seg_t, seg_f, np.zeros(n, dtype=bool)
        # the loop runs at frequency * (1 - depth), where depth counts the
        # suspensions in force; suspensions are sorted by start, and their
        # ends only by prefix maximum, since one may end inside another
        lo, hi = endpoint.suspended_in(t0, t1)
        if lo < hi:  # some suspension may overlap the span
            live = np.clip(np.array(endpoint.suspensions[lo:hi], dtype=np.int64), t0, t1)
            depth_t, depth = step_function(live[:, 0], live[:, 1], t0)
            # merge the two breakpoint lists: a time in both adds an empty segment
            rate_t = np.sort(np.concatenate([seg_t, depth_t]))
            rate = (seg_f[np.searchsorted(seg_t, rate_t, side="right") - 1]
                    * (1 - depth[np.searchsorted(depth_t, rate_t, side="right") - 1]))
            # a window is missing when one suspension starting at or before
            # it reaches its end: the furthest end so far tells (every bound
            # lies at or before t1, so that end needs no clipping)
            furthest = np.array([t0] + endpoint.reach[lo:hi], dtype=np.int64)
            missing = furthest[live[:, 0].searchsorted(bounds[:-1], side="right")] >= bounds[1:]
        integrals = _window_integrals(rate_t, rate, bounds)

        counts = integrals * 1e-6  # Hz*us to cycles
        if self.jitter_sigma > 0:
            g = endpoint.jitter.normal(0.0, self.jitter_sigma, size=n)
            counts *= 1.0 + g
        counts = np.rint(np.maximum(counts, 0.0, out=counts), out=counts).astype(np.int64)
        counts[missing] = 0
        return SampleSeries(t0, window_us, counts, missing)


def _merge_suffix(merged: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Union of coalesced ``merged`` and one or more ``rows``, coalesced.
    Intervals of ``merged`` ending before the earliest row starts cannot
    meet a row, so only the suffix from there on is re-coalesced."""
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
    i = seg_t.searchsorted(bounds, side="right") - 1
    # a step of rise[k] at seg_t[k] adds rise[k] * (t - seg_t[k]) to the integral to t
    rise = seg_f.copy()
    rise[1:] -= seg_f[:-1]
    at = seg_f[i] * bounds
    at -= (rise * seg_t).cumsum()[i]
    return at[1:] - at[:-1]
