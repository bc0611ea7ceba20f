"""Turbo-frequency model: policies, activity traces, and background noise.

All simulation time is integer microseconds and all frequencies are integer
hertz, so event ordering and window integrals stay exact. Everything random
is drawn from a generator seeded by the profile that owns it; two calls with
identical inputs produce identical traces.
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain, islice, repeat, starmap
from operator import itemgetter
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

US_PER_MS = 1_000
US_PER_S = 1_000_000
# the highest rate (events per second) a noise or preemption process may
# have: one per microsecond, the resolution of the simulated clock
MAX_EVENT_RATE = 1e6

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

    @cached_property
    def count_frequencies(self) -> np.ndarray:
        """Read-only table: entry k is the frequency with k cores active."""
        table = np.array([turbo_frequency(self, k) for k in range(self.core_count + 1)])
        table.flags.writeable = False
        return table


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
    iv = intervals[intervals[:, 0].argsort(kind="stable")]
    ends = np.maximum.accumulate(iv[:, 1])
    # a merged interval ends where the next start exceeds every prior end
    last = (iv[1:, 0] > ends[:-1]).nonzero()[0]
    out = np.empty((len(last) + 1, 2), dtype=np.int64)
    out[0, 0] = iv[0, 0]
    out[1:, 0] = iv[last + 1, 0]
    out[:-1, 1] = ends[last]
    out[-1, 1] = ends[-1]
    return out


class ActivityTrace:
    """Per-core activity intervals over a fixed horizon.

    A core is "active" while inside one of its [start, end) intervals (i.e.
    not in a deep sleep state). Intervals per core are kept sorted, disjoint
    and clipped to [0, horizon). A trace never changes once built; its
    arrays are read-only, so cores may share one.
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
        for arr in self._per_core:
            arr.flags.writeable = False
        self._steps_cache: tuple[np.ndarray, np.ndarray] | None = None

    def intervals(self, core: int) -> list[tuple[int, int]]:
        return [(int(s), int(e)) for s, e in self._per_core[core]]

    def rows(self, core: int) -> np.ndarray:
        return self._per_core[core]

    def total_intervals(self) -> int:
        return sum(len(a) for a in self._per_core)

    def steps(self) -> tuple[np.ndarray, np.ndarray]:
        """Step function of the total active count (see ``step_function``);
        times[0] == 0."""
        if self._steps_cache is None:
            ivs = np.concatenate(self._per_core)
            self._steps_cache = step_function(ivs[:, 0], ivs[:, 1], 0)
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

    ``segments`` is an (n, 2) int64 array of (start_us, frequency_hz) rows,
    sorted by start; each segment runs until the next start (the last until
    the horizon). It is stored column-major, so ``segments.T`` unpacks into
    contiguous ``times, freqs`` arrays.
    """

    segments: np.ndarray
    horizon_us: int

    def __post_init__(self):
        self.segments = np.asfortranarray(self.segments, dtype=np.int64)

    def max_frequency(self) -> int:
        return int(self.segments[:, 1].max())

    def __eq__(self, other):
        if not isinstance(other, FrequencyTrace):
            return NotImplemented
        return (self.horizon_us == other.horizon_us
                and np.array_equal(self.segments, other.segments))


def step_function(starts: np.ndarray, ends: np.ndarray,
                  origin: int) -> tuple[np.ndarray, np.ndarray]:
    """How many [start, end) intervals cover each time at or after ``origin``.

    Returns (times, counts): counts[i] intervals cover [times[i], times[i+1]),
    the last count holds from the last time on, and times[0] == origin. No
    start may lie before ``origin``.
    """
    times = np.concatenate([[origin], starts, ends])
    deltas = np.concatenate([[0], np.ones(len(starts), dtype=np.int64),
                             np.full(len(ends), -1, dtype=np.int64)])
    order = np.argsort(times, kind="stable")
    times = times[order]
    counts = np.cumsum(deltas[order])
    # keep the final count at each distinct time
    keep = np.append(times[1:] != times[:-1], True)
    return times[keep], counts[keep]


def pcu_walk(policy: TurboPolicy, times: np.ndarray, counts: np.ndarray,
             end_us: int) -> tuple[np.ndarray, int | None]:
    """Run the power-control unit over an active-count step function.

    ``counts[i]`` cores are active on [times[i], times[i+1]) (the last count
    until ``end_us``); ``times`` ascends and the walk starts at ``times[0]``.
    Returns the effective frequency as (start_us, hz) segments (see
    ``FrequencyTrace``), the first at ``times[0]``, with no two neighbours at
    the same frequency, and the time from which they are exact (see below).

    - The PCU samples the active count at every absolute tick k*pcu_period
      and targets the level frequency for that count.
    - A span of activity that no tick lands in is never seen: sub-period
      blips between ticks are missed.
    - A downward target takes effect at its tick. An upward target takes
      effect ``recovery_delay_us`` after its tick, unless a later tick
      decides downward first, which cancels the pending ramp, or decides
      another upward target, which restarts it.
    - When a ramp fires on the same tick as a downward decision, the
      decision wins and the two collapse into one segment.

    A walk from time 0 takes its first decision at once and is exact
    throughout. A walk that starts later does not know the PCU's state at
    ``times[0]``, so it assumes the lowest level with no ramp pending.
    Starting lower never ends higher: the walk stays at or below the true
    frequency until a tick decides at or below the walk's frequency or one
    of its ramps fires, and either puts the true PCU into the walk's state.
    That time is returned, or None if the walk never reaches it.

    Only a tick whose target differs from the tick before decides anything,
    so a pending ramp is always the last decision's. Decision i *holds* when
    its ramp would fire by the next decision (by ``end_us`` for the last).
    The frequency after it is its target if it holds, and the lower of the
    frequency before and its target if not: a running minimum that restarts
    at every holding decision. A walk from time 0 starts from the top level,
    so its first decision acts at once; a later one from the lowest.
    """
    period = policy.pcu_period_us
    delay = policy.recovery_delay_us
    top = policy.levels[0][1]
    start = int(times[0])
    # a step before end_us is seen by its first tick, if that comes before it ends
    n = times.searchsorted(end_us)
    ticks = (times[:n] + (period - 1)) // period * period
    seen = ticks < np.concatenate((times[1:n], (end_us,)))
    ticks, active = ticks[seen], counts[:n][seen]
    if len(active) and not 0 <= active.min() <= active.max() <= policy.core_count:
        raise DomainError(f"active count outside [0, {policy.core_count}]")
    targets = policy.count_frequencies[active]
    # the slice keeps a walk that sees no tick empty
    decides = np.concatenate(((True,), targets[1:] != targets[:-1]))[:len(targets)]
    ticks, targets = ticks[decides], targets[decides]

    holds = ticks + delay <= np.concatenate((ticks[1:], (end_us - 1,)))
    # entry 0 of freqs (and of when) is the state the walk starts in; each
    # run from a holding decision on is lifted clear of all before it, so the
    # running minimum restarts there
    lift = holds.cumsum() * top
    freqs = np.minimum.accumulate(np.concatenate(
        ((top if start == 0 else policy.levels[-1][1],), targets - lift)))
    freqs[1:] += lift
    before = freqs[:-1]
    rises = freqs[1:] > before
    # a fall takes effect at its tick, a rise when its ramp fires
    when = np.concatenate(((start,), ticks + delay * rises))
    # the walk is exact from the first decision at or below the frequency it
    # meets, or from the first ramp that fires
    exact = (holds | (targets <= before)).nonzero()[0]
    exact_from = int(when[exact[0] + 1]) if len(exact) else None

    # the last change at each time wins, and equal neighbours merge
    last = np.concatenate((when[1:] != when[:-1], (True,)))
    when, freqs = when[last], freqs[last]
    new = np.concatenate(((True,), freqs[1:] != freqs[:-1]))
    return np.array([when[new], freqs[new]]).T, exact_from


def apply_policy(policy: TurboPolicy, activity: ActivityTrace) -> FrequencyTrace:
    """Run the power-control unit over a whole activity trace (see
    ``pcu_walk`` for its rules)."""
    if activity.core_count != policy.core_count:
        raise DomainError("activity core_count does not match policy")
    times, counts = activity.steps()
    segments, _ = pcu_walk(policy, times, counts, activity.horizon_us)
    return FrequencyTrace(segments=segments, horizon_us=activity.horizon_us)


@dataclass(frozen=True)
class NoiseProfile:
    """Seeded background-activity generator description.

    Kinds:
      idle-background  Poisson single-core wakeups; durations drawn from
                       ``event_rates`` (ms -> events/s), by default
                       ``IDLE_EVENT_RATES``.
      constant-load    ``constant_cores`` cores held active for the horizon.
      custom           ``toggle_cores`` cores independently alternating
                       active/idle with uniform dwell times (artificial-noise
                       countermeasure).
    """

    kind: str
    seed: int = 0
    event_rates: Mapping[int, float] | None = None
    constant_cores: int = 0
    toggle_cores: int = 0
    toggle_min_us: int = 5_000
    toggle_max_us: int = 50_000

    def __post_init__(self):
        if self.kind not in ("idle-background", "constant-load", "custom"):
            raise DomainError(f"unknown noise kind {self.kind!r}")
        if self.event_rates is not None and not (
                all(r >= 0 for r in self.event_rates.values())
                and sum(self.event_rates.values()) <= MAX_EVENT_RATE):
            # faster, a run draws wakeups the clock cannot tell apart by the
            # billion; an infinite sum keeps every wakeup at time 0, without end
            raise DomainError(f"event rates must be >= 0 with a sum of at most "
                              f"{MAX_EVENT_RATE:g}/s")
        if self.constant_cores < 0 or self.toggle_cores < 0:
            raise DomainError("core counts must be >= 0")
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


NoiseBlock = tuple[np.ndarray, np.ndarray, np.ndarray]

# intervals per noise block: small first, so a short query reads little,
# then doubled up to a cap. The cap bounds what a stream holds between blocks
_BLOCK_MIN = 128
_BLOCK_MAX = 1024


def noise_stream(profile: NoiseProfile, horizon_us: int, core_count: int,
                 cores: Sequence[int] | None = None) -> Iterator[NoiseBlock]:
    """Expand a noise profile lazily into blocks of intervals.

    Each block is three int64 arrays ``(cores, starts, ends)``. Intervals
    come in non-decreasing start order, within a block and from one block to
    the next, and are clipped to the horizon; they may overlap on a core.
    ``cores`` restricts which cores the generator may touch (round-robin for
    event kinds); default is all cores. Arguments are checked here, not at
    the first ``next``, so a bad profile fails where the stream is created.
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
    if profile.kind == "idle-background":
        return _idle_blocks(profile, horizon_us, pool)
    return _blocks(_expand(profile, horizon_us, pool))


def _idle_blocks(profile: NoiseProfile, horizon_us: int, pool: list[int]):
    """Idle-background wakeups, drawn a block at a time.

    Each wakeup takes two ``random()`` calls from the profile's generator, in
    the order ``_poisson_events`` and ``rng.choices`` would make them: the
    exponential gap, then the duration pick. A block pulls those uniforms in
    one go and does the arithmetic in numpy, operation for operation, so
    the stream is bit for bit the one-at-a-time draw.
    """
    rates = {d: r for d, r in profile.rates().items() if r > 0}
    if not rates or not pool:
        return
    keys = sorted(rates)
    durations = np.array([d * US_PER_MS for d in keys], dtype=np.int64)
    cum_weights = np.array(list(accumulate(rates[d] for d in keys)))
    total_rate = sum(rates.values())
    cores = np.array(pool, dtype=np.int64)
    rng = random.Random(f"noise:{profile.kind}:{profile.seed}")
    t = 0.0   # arrival time of the last wakeup drawn, as a float
    idx = 0   # events drawn so far, for the round-robin over the pool
    n = _BLOCK_MIN
    while True:
        starts, picks, t = _draw_wakeups(rng, n, t, total_rate, cum_weights, horizon_us)
        if len(starts):
            yield (cores[(idx + np.arange(len(starts))) % len(cores)], starts,
                   np.minimum(starts + durations[picks], horizon_us))
        if len(starts) < n:
            return
        idx += n
        n = min(2 * n, _BLOCK_MAX)


def _draw_wakeups(rng: random.Random, n: int, t: float, total_rate: float,
                  cum_weights: np.ndarray, horizon_us: int
                  ) -> tuple[np.ndarray, np.ndarray, float]:
    """The next ``n`` wakeups after the float time ``t``: the start (us) of
    each that begins before the horizon, its duration index, and the float
    arrival time of the last one drawn. The logarithm stays ``math.log``:
    ``np.log`` differs from it in the last place on some inputs, and one gap
    moves every later start."""
    u = np.fromiter(starmap(rng.random, repeat((), 2 * n)), np.float64, 2 * n)
    # expovariate: -log(1 - u) / rate, in seconds, then scaled to us
    logs = np.fromiter(map(math.log, (1.0 - u[0::2]).tolist()), np.float64, n)
    with np.errstate(over="ignore"):  # a tiny rate gives an infinite gap
        gaps = -logs / total_rate * US_PER_S
        gaps[0] += t
        arrivals = np.cumsum(gaps)  # in order, as t += gap would add
    k = int(np.searchsorted(arrivals, horizon_us, side="left"))
    picks = np.searchsorted(cum_weights[:-1], u[1:2 * k:2] * cum_weights[-1], side="right")
    return arrivals[:k].astype(np.int64), picks, float(arrivals[-1])


def _blocks(items: Iterator[tuple[int, int, int]]) -> Iterator[NoiseBlock]:
    """Group (core, start, end) items into noise blocks."""
    n = _BLOCK_MIN
    while len(flat := np.fromiter(chain.from_iterable(islice(items, n)), np.int64)):
        block = flat.reshape(-1, 3)
        yield block[:, 0], block[:, 1], block[:, 2]
        n = min(2 * n, _BLOCK_MAX)


def _by_core(blocks: Sequence[NoiseBlock], cores: Iterable[int]
             ) -> Iterator[tuple[int, np.ndarray]]:
    """(core, [start, end) rows) for each of ``cores`` that the blocks touch."""
    if not blocks:
        return
    on, starts, ends = (np.concatenate(col) for col in zip(*blocks))
    for core in cores:
        mask = on == core
        if mask.any():
            yield core, np.column_stack([starts[mask], ends[mask]])


def _expand(profile: NoiseProfile, horizon_us: int, pool: list[int]):
    """Intervals of the constant-load and custom kinds, one at a time.
    custom draws with ``randint``, which takes a variable number of words
    from the generator, so its draws are not made in blocks."""
    if profile.kind == "constant-load":
        for c in pool[: profile.constant_cores]:
            yield c, 0, horizon_us
        return
    yield from heapq.merge(*(_toggles(profile, c, horizon_us)
                             for c in pool[: profile.toggle_cores]),
                           key=itemgetter(1))


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
    blocks = list(noise_stream(profile, horizon_us, core_count, cores))
    raw = [np.empty((0, 2), dtype=np.int64) for _ in range(core_count)]
    for c, ivs in _by_core(blocks, range(core_count)):
        raw[c] = _coalesce(ivs)
    return ActivityTrace(core_count, horizon_us, _raw=raw)
