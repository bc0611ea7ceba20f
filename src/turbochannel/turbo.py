"""Turbo-frequency model: policies, activity traces, and background noise.

All simulation time is integer microseconds and all frequencies are integer
hertz, so event ordering and window integrals stay exact. Everything random
is drawn from a generator seeded by the profile that owns it; two calls with
identical inputs produce identical traces.
"""

from __future__ import annotations

import heapq
import random
from bisect import bisect
from collections import defaultdict
from dataclasses import dataclass
from itertools import accumulate
from operator import itemgetter
from typing import Iterator, Mapping, Sequence

import numpy as np

US_PER_MS = 1_000
US_PER_S = 1_000_000

# Default background wakeup activity of an otherwise idle machine: short
# single-core wakeups, bucketed by duration (ms -> events per second).
IDLE_EVENT_RATES: Mapping[int, float] = {1: 109.0, 2: 5.0, 3: 2.0, 4: 1.0, 6: 1.0}


class DomainError(ValueError):
    """An operation was called outside its contract."""


@dataclass(frozen=True)
class TurboPolicy:
    """Maps the number of active cores to the shared turbo frequency.

    ``levels`` is an ascending table of (max_active_cores, frequency_hz):
    the first level whose bound covers the active-core count wins. The
    power-control unit re-evaluates once per ``pcu_period_us``;
    ``recovery_delay_us`` delays upward frequency changes (0 models CPUs
    that recover instantly, large values model slow-ramp parts).
    """

    core_count: int
    levels: tuple[tuple[int, int], ...]
    base_frequency_hz: int
    pcu_period_us: int = 1_000
    recovery_delay_us: int = 0

    def __post_init__(self):
        if self.core_count < 1:
            raise DomainError("core_count must be >= 1")
        if not self.levels:
            raise DomainError("policy needs at least one level")
        bounds = [b for b, _ in self.levels]
        freqs = [f for _, f in self.levels]
        if bounds != sorted(set(bounds)):
            raise DomainError("levels must be strictly ascending in max_active_cores")
        if bounds[-1] != self.core_count:
            raise DomainError("last level must cover core_count")
        if any(f2 >= f1 for f1, f2 in zip(freqs, freqs[1:])):
            raise DomainError("level frequencies must be strictly decreasing")
        if any(f < self.base_frequency_hz for f in freqs):
            raise DomainError("every level frequency must be >= base frequency")
        if self.pcu_period_us <= 0:
            raise DomainError("pcu_period_us must be > 0")
        if self.recovery_delay_us < 0:
            raise DomainError("recovery_delay_us must be >= 0")

    def level_index_for_count(self, active_count: int) -> int:
        if not 0 <= active_count <= self.core_count:
            raise DomainError(
                f"active_count {active_count} outside [0, {self.core_count}]"
            )
        for i, (bound, _) in enumerate(self.levels):
            if active_count <= bound:
                return i
        raise AssertionError("unreachable: last bound covers core_count")

    def frequency_of_level(self, index: int) -> int:
        return self.levels[index][1]


def turbo_frequency(policy: TurboPolicy, active_count: int) -> int:
    """Turbo frequency selected when ``active_count`` cores are awake.

    Zero active cores map to the top level: fewer active cores never lower
    the frequency, and the bottom of the table is pinned by core_count.
    """
    return policy.frequency_of_level(policy.level_index_for_count(active_count))


_BUILTIN_POLICIES = {
    # 8-core server part: 1.8 GHz base; turbo 3.0 GHz up to 2 active cores,
    # 2.7 GHz up to 4, 2.1 GHz all-core.
    "xeon-silver-4108": TurboPolicy(
        core_count=8,
        levels=((2, 3_000_000_000), (4, 2_700_000_000), (8, 2_100_000_000)),
        base_frequency_hz=1_800_000_000,
    ),
    # Slow-recovery desktop profile: boost drops quickly when cores wake but
    # takes ~400 ms to come back after they sleep again.
    "ryzen-2700x-like": TurboPolicy(
        core_count=8,
        levels=((2, 4_300_000_000), (8, 4_000_000_000)),
        base_frequency_hz=3_700_000_000,
        recovery_delay_us=400_000,
    ),
}


def builtin_policy(name: str) -> TurboPolicy:
    try:
        return _BUILTIN_POLICIES[name]
    except KeyError:
        raise DomainError(
            f"unknown policy {name!r}; built-ins: {sorted(_BUILTIN_POLICIES)}"
        ) from None


def builtin_policy_names() -> list[str]:
    return sorted(_BUILTIN_POLICIES)


def _coalesce(intervals: np.ndarray) -> np.ndarray:
    """Sort and merge overlapping/adjacent [start, end) rows."""
    if len(intervals) == 0:
        return intervals.reshape(0, 2)
    order = np.argsort(intervals[:, 0], kind="stable")
    iv = intervals[order]
    ends = np.maximum.accumulate(iv[:, 1])
    # a new merged interval starts where the start exceeds every prior end
    new_start = np.empty(len(iv), dtype=bool)
    new_start[0] = True
    new_start[1:] = iv[1:, 0] > ends[:-1]
    idx = np.flatnonzero(new_start)
    starts = iv[idx, 0]
    stops = np.empty(len(idx), dtype=np.int64)
    stops[:-1] = ends[idx[1:] - 1]
    stops[-1] = ends[-1]
    return np.column_stack([starts, stops])


class ActivityTrace:
    """Per-core activity intervals over a fixed horizon.

    A core is "active" while inside one of its [start, end) intervals (i.e.
    not in a deep sleep state). Intervals per core are kept sorted, disjoint
    and clipped to [0, horizon).
    """

    def __init__(self, core_count: int, horizon_us: int,
                 intervals: Mapping[int, Sequence[tuple[int, int]]] | None = None,
                 _raw: list[np.ndarray] | None = None):
        if core_count < 1:
            raise DomainError("core_count must be >= 1")
        if horizon_us <= 0:
            raise DomainError("horizon_us must be > 0")
        self.core_count = core_count
        self.horizon_us = horizon_us
        if _raw is not None:
            self._per_core = _raw
        else:
            self._per_core = [np.empty((0, 2), dtype=np.int64) for _ in range(core_count)]
            for core, ivs in (intervals or {}).items():
                if not 0 <= core < core_count:
                    raise DomainError(f"core {core} outside [0, {core_count})")
                arr = np.asarray(sorted(ivs), dtype=np.int64).reshape(-1, 2)
                if len(arr):
                    if arr[0, 0] < 0 or arr[-1, 1] > horizon_us:
                        raise DomainError("interval outside [0, horizon)")
                    if np.any(arr[:, 1] <= arr[:, 0]):
                        raise DomainError("empty or inverted interval")
                    if np.any(arr[1:, 0] < arr[:-1, 1]):
                        raise DomainError("overlapping intervals on one core")
                self._per_core[core] = arr
        self._steps_cache: tuple[np.ndarray, np.ndarray] | None = None

    def intervals(self, core: int) -> list[tuple[int, int]]:
        return [(int(s), int(e)) for s, e in self._per_core[core]]

    def total_intervals(self) -> int:
        return sum(len(a) for a in self._per_core)

    def steps(self) -> tuple[np.ndarray, np.ndarray]:
        """Step function of the total active count.

        Returns (times, counts): counts[i] cores are active on
        [times[i], times[i+1]); times[0] == 0.
        """
        if self._steps_cache is None:
            starts = np.concatenate([a[:, 0] for a in self._per_core]) \
                if self.total_intervals() else np.empty(0, dtype=np.int64)
            ends = np.concatenate([a[:, 1] for a in self._per_core]) \
                if self.total_intervals() else np.empty(0, dtype=np.int64)
            times = np.concatenate([starts, ends])
            deltas = np.concatenate([np.ones(len(starts), dtype=np.int64),
                                     -np.ones(len(ends), dtype=np.int64)])
            order = np.lexsort((deltas, times))
            times = times[order]
            deltas = deltas[order]
            counts = np.cumsum(deltas)
            # compress repeated timestamps, keep the final count at each time
            if len(times):
                keep = np.empty(len(times), dtype=bool)
                keep[:-1] = times[1:] != times[:-1]
                keep[-1] = True
                times = times[keep]
                counts = counts[keep]
            if len(times) == 0 or times[0] != 0:
                times = np.concatenate([[0], times])
                counts = np.concatenate([[0], counts])
            self._steps_cache = (times, counts)
        return self._steps_cache

    def active_count_at(self, t_us: int) -> int:
        if not 0 <= t_us < self.horizon_us:
            raise DomainError(f"time {t_us} outside [0, {self.horizon_us})")
        times, counts = self.steps()
        i = int(np.searchsorted(times, t_us, side="right")) - 1
        return int(counts[i])

    def __eq__(self, other):
        if not isinstance(other, ActivityTrace):
            return NotImplemented
        return (self.core_count == other.core_count
                and self.horizon_us == other.horizon_us
                and all(np.array_equal(a, b)
                        for a, b in zip(self._per_core, other._per_core)))

    def __repr__(self):
        return (f"ActivityTrace(cores={self.core_count}, horizon={self.horizon_us}us, "
                f"intervals={self.total_intervals()})")


def merge(traces: Sequence[ActivityTrace]) -> ActivityTrace:
    """Per-core union of activity; a core is active if active in any input."""
    if not traces:
        raise DomainError("merge needs at least one trace")
    first = traces[0]
    for t in traces[1:]:
        if t.core_count != first.core_count or t.horizon_us != first.horizon_us:
            raise DomainError("merge requires matching core_count and horizon")
    raw = []
    for core in range(first.core_count):
        stacked = np.concatenate([t._per_core[core] for t in traces])
        raw.append(_coalesce(stacked))
    return ActivityTrace(first.core_count, first.horizon_us, _raw=raw)


@dataclass
class FrequencyTrace:
    """Piecewise-constant effective turbo frequency over [0, horizon).

    ``segments`` is a sorted list of (start_us, frequency_hz); each segment
    runs until the next start (the last until the horizon).
    """

    segments: list[tuple[int, int]]
    horizon_us: int

    def frequency_at(self, t_us: int) -> int:
        if not 0 <= t_us < self.horizon_us:
            raise DomainError(f"time {t_us} outside [0, {self.horizon_us})")
        lo, hi = 0, len(self.segments)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if self.segments[mid][0] <= t_us:
                lo = mid
            else:
                hi = mid
        return self.segments[lo][1]

    def boundaries(self) -> tuple[np.ndarray, np.ndarray]:
        """(times, freqs) arrays; freqs[i] holds on [times[i], times[i+1])."""
        times = np.fromiter((s for s, _ in self.segments), dtype=np.int64,
                            count=len(self.segments))
        freqs = np.fromiter((f for _, f in self.segments), dtype=np.int64,
                            count=len(self.segments))
        return times, freqs

    def max_frequency(self) -> int:
        return max(f for _, f in self.segments)


def _ceil_to(t: int, step: int) -> int:
    return -(-t // step) * step


def apply_policy(policy: TurboPolicy, activity: ActivityTrace) -> FrequencyTrace:
    """Run the power-control unit over an activity trace.

    The PCU samples the active-core count at every tick k*pcu_period and sets
    the matching level frequency for the following period. Downward changes
    take effect at the sampling tick; upward changes are additionally delayed
    by the policy's recovery delay (a later downward decision cancels a
    pending upward ramp).
    """
    if activity.core_count != policy.core_count:
        raise DomainError("activity core_count does not match policy")
    period = policy.pcu_period_us
    horizon = activity.horizon_us
    times, counts = activity.steps()

    # Targets as sampled at PCU ticks: each activity span contributes its
    # level only if a tick lands inside it.
    events: list[tuple[int, int]] = []  # (tick_us, target_hz)
    last_target = None
    n = len(times)
    for i in range(n):
        t0 = int(times[i])
        t1 = int(times[i + 1]) if i + 1 < n else horizon
        if t0 >= horizon:
            break
        tick = _ceil_to(t0, period)
        if tick >= min(t1, horizon):
            continue  # span shorter than the PCU period and never sampled
        target = turbo_frequency(policy, int(counts[i]))
        if target != last_target:
            events.append((tick, target))
            last_target = target

    segments: list[tuple[int, int]] = []
    current: int | None = None
    pending: tuple[int, int] | None = None  # (target_hz, fire_us)

    def emit(t: int, f: int):
        nonlocal current
        if segments and segments[-1][0] == t:
            segments[-1] = (t, f)
        elif not segments or segments[-1][1] != f:
            segments.append((t, f))
        current = f

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
            fire = tick + policy.recovery_delay_us
            if pending is None or pending[0] != target:
                pending = (target, fire)
        else:
            pending = None
    if pending is not None and pending[1] < horizon:
        emit(pending[1], pending[0])

    if not segments:
        segments = [(0, turbo_frequency(policy, 0))]
    if segments[0][0] != 0:
        # the first PCU decision is at tick 0 by construction
        segments.insert(0, (0, segments[0][1]))
    return FrequencyTrace(segments=segments, horizon_us=horizon)


@dataclass(frozen=True)
class NoiseProfile:
    """Seeded background-activity generator description.

    Kinds:
      idle-background  Poisson single-core wakeups; durations drawn from
                       ``event_rates`` (ms -> events/s).
      constant-load    ``constant_cores`` cores held active for the horizon.
      vm-interrupts    Poisson preemption events (``interrupt_rate``/s) whose
                       durations are uniform in [preempt_min_us, preempt_max_us].
                       The physical layer also treats these intervals as
                       suspensions of the process pinned to the core.
      custom           ``toggle_cores`` cores independently alternating
                       active/idle with uniform dwell times (artificial-noise
                       countermeasure).
    """

    kind: str
    seed: int = 0
    event_rates: Mapping[int, float] | None = None
    constant_cores: int = 0
    interrupt_rate: float = 0.0
    preempt_min_us: int = 1_000
    preempt_max_us: int = 10_000
    toggle_cores: int = 0
    toggle_min_us: int = 5_000
    toggle_max_us: int = 50_000

    def __post_init__(self):
        if self.kind not in ("idle-background", "constant-load", "vm-interrupts", "custom"):
            raise DomainError(f"unknown noise kind {self.kind!r}")
        if self.event_rates is not None and any(r < 0 for r in self.event_rates.values()):
            raise DomainError("event rates must be >= 0")
        if self.interrupt_rate < 0:
            raise DomainError("interrupt_rate must be >= 0")
        if self.constant_cores < 0 or self.toggle_cores < 0:
            raise DomainError("core counts must be >= 0")
        if not 0 <= self.preempt_min_us <= self.preempt_max_us:
            raise DomainError("need 0 <= preempt_min_us <= preempt_max_us")
        if not 0 < self.toggle_min_us <= self.toggle_max_us:
            raise DomainError("need 0 < toggle_min_us <= toggle_max_us")

    def rates(self) -> Mapping[int, float]:
        if self.event_rates is not None:
            return self.event_rates
        return IDLE_EVENT_RATES


def _poisson_events(rng: random.Random, rate_per_s: float, horizon_us: int):
    """Arrival times (us) of a Poisson process, drawn gap by gap so that a
    longer horizon extends rather than reshuffles the stream."""
    if rate_per_s <= 0:
        return
    t = 0.0
    while True:
        t += rng.expovariate(rate_per_s) * US_PER_S
        if t >= horizon_us:
            return
        yield int(t)


def noise_stream(profile: NoiseProfile, horizon_us: int, core_count: int,
                 cores: Sequence[int] | None = None
                 ) -> Iterator[tuple[int, int, int]]:
    """Expand a noise profile lazily into (core, start, end) intervals.

    Intervals come in non-decreasing start order and are clipped to the
    horizon; they may overlap on a core. ``cores`` restricts which cores the
    generator may touch (round-robin for event kinds); default is all cores.
    Arguments are checked here, not at the first ``next``, so a bad profile
    fails where the stream is created.
    """
    if horizon_us <= 0:
        raise DomainError("horizon_us must be > 0")
    pool = list(cores) if cores is not None else list(range(core_count))
    for c in pool:
        if not 0 <= c < core_count:
            raise DomainError(f"core {c} outside [0, {core_count})")
    if profile.kind == "constant-load" and profile.constant_cores > len(pool):
        raise DomainError("not enough cores for constant load")
    if profile.kind == "custom" and profile.toggle_cores > len(pool):
        raise DomainError("not enough cores for toggle noise")
    return _expand(profile, horizon_us, pool)


def _expand(profile: NoiseProfile, horizon_us: int, pool: list[int]):
    if profile.kind == "constant-load":
        for c in pool[: profile.constant_cores]:
            yield c, 0, horizon_us
        return
    if profile.kind == "custom":
        yield from heapq.merge(*(_toggles(profile, c, horizon_us)
                                 for c in pool[: profile.toggle_cores]),
                               key=itemgetter(1))
        return
    if not pool:
        return
    rng = random.Random(f"noise:{profile.kind}:{profile.seed}")
    if profile.kind == "idle-background":
        rates = {d: r for d, r in profile.rates().items() if r > 0}
        keys = sorted(rates)
        durations = [d * US_PER_MS for d in keys]
        # rng.choices(durations, [rates[d] for d in keys]) unrolled, draw for
        # draw: one random() scaled by the total and bisected into the
        # cumulative weights (about 3x faster than the call)
        cum_weights = list(accumulate(rates[d] for d in keys))
        last = len(keys) - 1
        idx = 0
        for t in _poisson_events(rng, sum(rates.values()), horizon_us):
            pick = bisect(cum_weights, rng.random() * cum_weights[-1], 0, last)
            yield pool[idx % len(pool)], t, min(t + durations[pick], horizon_us)
            idx += 1
    else:  # vm-interrupts
        idx = 0
        for t in _poisson_events(rng, profile.interrupt_rate, horizon_us):
            dur = rng.randint(profile.preempt_min_us, profile.preempt_max_us)
            yield pool[idx % len(pool)], t, min(t + dur, horizon_us)
            idx += 1


def _toggles(profile: NoiseProfile, core: int, horizon_us: int):
    """One core alternating active/idle with uniform dwell times."""
    rng = random.Random(f"toggle:{profile.seed}:{core}")
    t = rng.randint(0, profile.toggle_max_us)
    while t < horizon_us:
        on = rng.randint(profile.toggle_min_us, profile.toggle_max_us)
        off = rng.randint(profile.toggle_min_us, profile.toggle_max_us)
        yield core, t, min(t + on, horizon_us)
        t += on + off


def generate_noise(profile: NoiseProfile, horizon_us: int, core_count: int,
                   cores: Sequence[int] | None = None) -> ActivityTrace:
    """Expand a noise profile over the whole horizon into an activity trace.

    This drains ``noise_stream`` and coalesces each core's intervals; the
    simulated channel reads the stream itself and expands it only as far as
    it has been queried. Degenerate profiles (zero rates, zero cores) yield
    an empty trace.
    """
    per_core: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for core, start, end in noise_stream(profile, horizon_us, core_count, cores):
        per_core[core].append((start, end))
    raw = [np.empty((0, 2), dtype=np.int64) for _ in range(core_count)]
    for c, ivs in per_core.items():
        raw[c] = _coalesce(np.asarray(ivs, dtype=np.int64))
    return ActivityTrace(core_count, horizon_us, _raw=raw)
