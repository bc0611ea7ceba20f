import dataclasses
import random
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from strategies import noise_profiles

from turbochannel.turbo import (IDLE_EVENT_RATES, ActivityTrace, DomainError,
                                NoiseProfile, TurboPolicy, _coalesce,
                                _poisson_events, apply_policy, builtin_policy,
                                generate_noise, merge, noise_stream,
                                pcu_walk, step_function, turbo_frequency)

XEON = builtin_policy("xeon-silver-4108")
RYZEN = builtin_policy("ryzen-2700x-like")

GHZ = 1_000_000_000


class TestTurboFrequency:
    def test_catalog_values(self):
        assert turbo_frequency(XEON, 2) == 3_000_000_000
        assert turbo_frequency(XEON, 5) == 2_100_000_000
        assert turbo_frequency(XEON, 3) == 2_700_000_000

    def test_zero_active_cores_gets_top_level(self):
        assert turbo_frequency(XEON, 0) == 3_000_000_000

    def test_full_table(self):
        expected = [3.0, 3.0, 3.0, 2.7, 2.7, 2.1, 2.1, 2.1, 2.1]
        got = [turbo_frequency(XEON, n) / 1e9 for n in range(9)]
        assert got == expected

    def test_monotone_in_active_count(self):
        freqs = [turbo_frequency(XEON, n) for n in range(XEON.core_count + 1)]
        assert all(a >= b for a, b in zip(freqs, freqs[1:]))

    def test_count_table_is_built_once_and_read_only(self):
        table = XEON.count_frequencies
        assert table.tolist() == [turbo_frequency(XEON, n) for n in range(9)]
        assert XEON.count_frequencies is table
        with pytest.raises(ValueError):
            table[0] = 0

    def test_count_above_core_count_rejected(self):
        with pytest.raises(DomainError):
            turbo_frequency(XEON, 9)
        with pytest.raises(DomainError):
            turbo_frequency(XEON, -1)


class TestPolicyValidation:
    def test_levels_must_descend(self):
        with pytest.raises(DomainError):
            TurboPolicy(4, ((2, 2 * GHZ), (4, 3 * GHZ)), GHZ)

    def test_last_level_covers_core_count(self):
        with pytest.raises(DomainError):
            TurboPolicy(8, ((2, 3 * GHZ), (4, 2 * GHZ)), GHZ)

    def test_level_frequencies_at_least_base(self):
        with pytest.raises(DomainError):
            TurboPolicy(4, ((2, 3 * GHZ), (4, 2 * GHZ)), int(2.5 * GHZ))

    def test_builtin_names(self):
        assert builtin_policy("ryzen-2700x-like").recovery_delay_us == 400_000
        with pytest.raises(DomainError):
            builtin_policy("no-such-cpu")


class TestActivityTrace:
    def test_active_count(self):
        t = ActivityTrace(4, 1000, {0: [(0, 1000)], 1: [(100, 200)]})
        assert t.active_count_at(0) == 1
        assert t.active_count_at(150) == 2
        assert t.active_count_at(200) == 1

    def test_rejects_overlap(self):
        with pytest.raises(DomainError):
            ActivityTrace(2, 1000, {0: [(0, 500), (400, 600)]})

    def test_rejects_outside_horizon(self):
        with pytest.raises(DomainError):
            ActivityTrace(2, 1000, {0: [(500, 1500)]})


class TestApplyPolicy:
    def test_single_core_constant(self):
        act = ActivityTrace(8, 50_000, {0: [(0, 50_000)]})
        ft = apply_policy(XEON, act)
        assert ft.segments.tolist() == [[0, 3_000_000_000]]

    def test_step_up_and_down(self):
        # 3 cores awake during [10, 20) ms on top of one resident core
        act = ActivityTrace(8, 40_000, {0: [(0, 40_000)],
                                        1: [(10_000, 20_000)],
                                        2: [(10_000, 20_000)]})
        ft = apply_policy(XEON, act)
        assert ft.segments.tolist() == [[0, 3_000_000_000],
                                        [10_000, 2_700_000_000],
                                        [20_000, 3_000_000_000]]

    def test_slow_recovery_delays_the_rise(self):
        slow = dataclasses.replace(XEON, recovery_delay_us=400_000)
        act = ActivityTrace(8, 500_000, {0: [(0, 500_000)],
                                         1: [(10_000, 20_000)],
                                         2: [(10_000, 20_000)]})
        ft = apply_policy(slow, act)
        assert ft.segments.tolist() == [[0, 3_000_000_000],
                                        [10_000, 2_700_000_000],
                                        [420_000, 3_000_000_000]]

    def test_core_count_mismatch(self):
        with pytest.raises(DomainError):
            apply_policy(XEON, ActivityTrace(4, 1000, {0: [(0, 1000)]}))

    def test_changes_only_at_ticks(self):
        act = ActivityTrace(8, 30_000, {0: [(0, 30_000)],
                                        1: [(4_321, 9_876)],
                                        2: [(4_321, 9_876)]})
        ft = apply_policy(XEON, act)
        assert all(start % XEON.pcu_period_us == 0 for start, _ in ft.segments.tolist())

    def test_sub_period_blip_between_ticks_is_missed(self):
        act = ActivityTrace(8, 10_000, {0: [(0, 10_000)],
                                        1: [(2_100, 2_900)],
                                        2: [(2_100, 2_900)]})
        ft = apply_policy(XEON, act)
        assert ft.segments.tolist() == [[0, 3_000_000_000]]

    def test_settled_interval_matches_table(self):
        # constant activity much longer than the PCU period settles exactly
        act = ActivityTrace(8, 100_000, {c: [(0, 100_000)] for c in range(5)})
        ft = apply_policy(XEON, act)
        assert ft.segments.tolist() == [[0, 2_100_000_000]]

    def test_ramp_cancelled_on_its_firing_tick_collapses(self):
        # the rise to 3 GHz decided at 1 ms fires at 2 ms, the same tick that
        # decides 2 GHz again: the frequency never leaves 2 GHz
        policy = TurboPolicy(core_count=2, levels=((1, 3 * GHZ), (2, 2 * GHZ)),
                             base_frequency_hz=GHZ, recovery_delay_us=1_000)
        act = ActivityTrace(2, 4_000, {0: [(0, 4_000)],
                                       1: [(0, 1_000), (2_000, 4_000)]})
        ft = apply_policy(policy, act)
        assert ft.segments.tolist() == [[0, 2 * GHZ]]
        assert ft.segments.dtype == np.int64


def _per_step_walk(policy, times, counts, end_us):
    """``pcu_walk`` one step at a time, with a ``turbo_frequency`` lookup
    at each sampled step: the reference for the vectorised scan."""
    period = policy.pcu_period_us
    events = []
    last_target = None
    n = len(times)
    for i in range(n):
        t0 = times[i]
        if t0 >= end_us:
            break
        t1 = times[i + 1] if i + 1 < n else end_us
        tick = -(-t0 // period) * period
        if tick >= min(t1, end_us):
            continue
        target = turbo_frequency(policy, counts[i])
        if target != last_target:
            events.append((tick, target))
            last_target = target

    segments = []
    current = None
    pending = None
    from_rest = times[0] == 0
    exact_from = times[0] if from_rest else None

    def emit(t, f):
        nonlocal current
        if segments and segments[-1][0] == t:
            segments[-1] = (t, f)
            if len(segments) >= 2 and segments[-2][1] == f:
                segments.pop()
        elif not segments or segments[-1][1] != f:
            segments.append((t, f))
        current = segments[-1][1]

    if not from_rest:
        emit(times[0], policy.levels[-1][1])
    for tick, target in events:
        if pending is not None and pending[1] <= tick:
            emit(pending[1], pending[0])
            if exact_from is None:
                exact_from = pending[1]
            pending = None
        if current is None:
            emit(tick, target)
        elif target > current:
            if pending is None or pending[0] != target:
                pending = (target, tick + policy.recovery_delay_us)
        else:
            if target < current:
                emit(tick, target)
            pending = None
            if exact_from is None:
                exact_from = tick
    if pending is not None and pending[1] < end_us:
        emit(pending[1], pending[0])
        if exact_from is None:
            exact_from = pending[1]
    if not segments:
        return [(times[0], turbo_frequency(policy, 0))], exact_from
    segments[0] = (times[0], segments[0][1])
    return segments, exact_from


@st.composite
def step_functions(draw):
    """(times, counts, end_us) of an active-count step function: from time 0
    or later, with steps on ticks, between them and up to a slow ramp long,
    and an end that may fall on or before the last steps."""
    start = draw(st.just(0) | st.integers(0, 20_000))
    gaps = draw(st.lists(st.integers(1, 4).map(lambda k: k * 500)
                         | st.integers(1, 3_000) | st.integers(1, 500_000),
                         max_size=40))
    times = list(accumulate(gaps, initial=start))
    counts = draw(st.lists(st.integers(0, 8), min_size=len(times), max_size=len(times)))
    end_us = draw(st.sampled_from(times[1:]) | st.integers(start + 1, times[-1] + 5_000)
                  if len(times) > 1 else st.integers(start + 1, start + 5_000))
    return times, counts, end_us


class TestPcuWalk:
    # with a ramp of one period, a ramp often fires on the tick of the next
    # decision, and two changes fall on one time
    @pytest.mark.parametrize("policy", [XEON, RYZEN,
                                        dataclasses.replace(XEON, recovery_delay_us=1_000),
                                        dataclasses.replace(XEON, recovery_delay_us=3_000)],
                             ids=["xeon", "ryzen", "xeon-1ms-ramp", "xeon-3ms-ramp"])
    @settings(max_examples=300, deadline=None)
    @given(steps=step_functions())
    # the step at 500 us is first sampled by the tick at 1 ms, where the next
    # step starts: it is never seen
    @example(steps=([0, 500, 1_000], [1, 5, 1], 10_000))
    # a walk from 2 ms decides on its first tick, at its start: without a
    # ramp that decision overwrites the lowest level the walk assumed there
    @example(steps=([2_000, 3_500], [1, 5], 6_000))
    def test_matches_the_per_step_walk(self, policy, steps):
        times, counts, end_us = steps
        segments, exact_from = pcu_walk(policy, np.array(times, dtype=np.int64),
                                        np.array(counts, dtype=np.int64), end_us)
        assert (list(map(tuple, segments.tolist())), exact_from) == _per_step_walk(
            policy, times, counts, end_us)
        assert segments.dtype == np.int64
        assert exact_from is None or type(exact_from) is int

    @pytest.mark.parametrize("count", [-1, 9])
    def test_count_outside_the_table_rejected(self, count):
        times = np.array([0, 1_000, 2_000], dtype=np.int64)
        counts = np.array([1, count, 1], dtype=np.int64)
        for walk in (pcu_walk, _per_step_walk):
            with pytest.raises(DomainError):
                walk(XEON, times, counts, 3_000)


@st.composite
def small_traces(draw):
    horizon = 20_000
    intervals = {}
    for core in range(3):
        pairs = draw(st.lists(
            st.tuples(st.integers(0, horizon - 2), st.integers(1, 4_000)),
            max_size=3))
        ivs = []
        cursor = 0
        for start, length in sorted(pairs):
            s = max(start, cursor)
            e = min(s + length, horizon)
            if e > s:
                ivs.append((s, e))
                cursor = e + 1
        if ivs:
            intervals[core] = ivs
    return ActivityTrace(3, horizon, intervals)


class TestStepFunction:
    @settings(max_examples=100, deadline=None)
    @given(origin=st.integers(0, 50),
           spans=st.lists(st.tuples(st.integers(0, 100), st.integers(1, 40)),
                          max_size=12))
    def test_counts_the_covering_intervals(self, origin, spans):
        starts = np.array([origin + s for s, _ in spans], dtype=np.int64)
        ends = starts + np.array([n for _, n in spans], dtype=np.int64)
        times, counts = step_function(starts, ends, origin)
        assert times[0] == origin
        assert np.all(np.diff(times) > 0)
        assert set(times.tolist()) == {origin, *starts.tolist(), *ends.tolist()}
        for t, c in zip(times.tolist(), counts.tolist()):
            assert c == sum(1 for s, e in zip(starts, ends) if s <= t < e)

    def test_empty_trace_is_idle_from_zero(self):
        times, counts = ActivityTrace(3, 1_000).steps()
        assert times.tolist() == [0] and counts.tolist() == [0]


class TestMerge:
    def test_identity(self):
        t = ActivityTrace(2, 1000, {0: [(0, 500)]})
        assert merge([t]) == t

    def test_disjoint_cores_overlap_in_time(self):
        a = ActivityTrace(4, 1000, {0: [(100, 600)]})
        b = ActivityTrace(4, 1000, {1: [(300, 800)]})
        m = merge([a, b])
        assert m.active_count_at(400) == 2
        assert m.active_count_at(700) == 1

    def test_mismatch_rejected(self):
        a = ActivityTrace(4, 1000)
        with pytest.raises(DomainError):
            merge([a, ActivityTrace(5, 1000)])
        with pytest.raises(DomainError):
            merge([a, ActivityTrace(4, 2000)])

    @settings(max_examples=60, deadline=None)
    @given(small_traces(), small_traces())
    def test_commutative(self, a, b):
        assert merge([a, b]) == merge([b, a])

    @settings(max_examples=60, deadline=None)
    @given(small_traces(), small_traces(), small_traces())
    def test_associative(self, a, b, c):
        assert merge([merge([a, b]), c]) == merge([a, merge([b, c])])


class TestGenerateNoise:
    def test_event_count_near_expected_rate(self):
        # summed default rate is 118/s; 10 s should land within 3 sigma
        profile = NoiseProfile("idle-background", seed=5)
        trace = generate_noise(profile, 10_000_000, 8, cores=range(2, 8))
        n = trace.total_intervals()
        assert 1077 <= n <= 1283

    def test_constant_load(self):
        profile = NoiseProfile("constant-load", constant_cores=2)
        trace = generate_noise(profile, 1_000_000, 8)
        for t in (0, 500_000, 999_999):
            assert trace.active_count_at(t) == 2

    def test_zero_rate_gives_empty_trace(self):
        profile = NoiseProfile("idle-background", event_rates={1: 0.0})
        trace = generate_noise(profile, 1_000_000, 8)
        assert trace.total_intervals() == 0

    def test_deterministic_for_fixed_seed(self):
        profile = NoiseProfile("idle-background", seed=99)
        a = generate_noise(profile, 2_000_000, 8)
        b = generate_noise(profile, 2_000_000, 8)
        assert a == b

    def test_longer_horizon_extends_the_same_stream(self):
        profile = NoiseProfile("idle-background", seed=3)
        short = generate_noise(profile, 1_000_000, 8)
        long = generate_noise(profile, 2_000_000, 8)
        for core in range(8):
            short_ivs = short.intervals(core)
            prefix = [iv for iv in long.intervals(core) if iv[1] <= 1_000_000]
            assert prefix == [iv for iv in short_ivs if iv[1] < 1_000_000] or \
                prefix == short_ivs

    def test_noise_only_touches_allowed_cores(self):
        profile = NoiseProfile("idle-background", seed=2)
        trace = generate_noise(profile, 1_000_000, 8, cores=[6, 7])
        for core in range(6):
            assert trace.intervals(core) == []


def _items(blocks):
    """A block stream as a list of (core, start, end) items."""
    items = []
    for cores, starts, ends in blocks:
        assert cores.dtype == starts.dtype == ends.dtype == np.int64
        assert len(cores) == len(starts) == len(ends) > 0
        items += zip(cores.tolist(), starts.tolist(), ends.tolist())
    return items


def _idle_reference(seed, event_rates, horizon, pool):
    """Idle-background wakeups one at a time: a Poisson arrival, then a
    duration from ``rng.choices``, round-robin over the pool."""
    rates = {d: r for d, r in event_rates.items() if r > 0}
    if not rates or not pool:
        return []
    durations = sorted(rates)
    rng = random.Random(f"noise:idle-background:{seed}")
    expected = []
    for i, t in enumerate(_poisson_events(rng, sum(rates.values()), horizon)):
        dur = rng.choices(durations, [rates[d] for d in durations])[0] * 1_000
        expected.append((pool[i % len(pool)], t, min(t + dur, horizon)))
    return expected


class TestNoiseStream:
    @settings(max_examples=80, deadline=None)
    @given(noise_profiles(max_cores=5), st.integers(1, 3_000_000),
           st.none() | st.lists(st.integers(0, 7), max_size=5, unique=True))
    def test_drained_stream_is_generate_noise(self, profile, horizon, cores):
        try:
            expected = generate_noise(profile, horizon, 8, cores)
        except DomainError:
            with pytest.raises(DomainError):
                noise_stream(profile, horizon, 8, cores)
            return
        items = _items(noise_stream(profile, horizon, 8, cores))
        starts = [s for _, s, _ in items]
        assert starts == sorted(starts)
        allowed = set(range(8) if cores is None else cores)
        assert all(c in allowed and 0 <= s < e <= horizon for c, s, e in items)
        for core in range(8):
            ivs = np.asarray([iv[1:] for iv in items if iv[0] == core],
                             dtype=np.int64).reshape(-1, 2)
            assert _coalesce(ivs).tolist() == expected._per_core[core].tolist()

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000),
           st.dictionaries(st.integers(1, 8), st.floats(0, 300), max_size=4),
           # 1 us, inside the first block, or across many blocks
           st.just(1) | st.integers(1, 500_000) | st.integers(1, 100_000_000),
           st.lists(st.integers(0, 7), max_size=4, unique=True))
    def test_idle_draws_match_random_choices(self, seed, event_rates, horizon, pool):
        # the blocks repeat the one-at-a-time draws bit for bit
        profile = NoiseProfile("idle-background", seed=seed, event_rates=event_rates)
        assert (_items(noise_stream(profile, horizon, 8, pool))
                == _idle_reference(seed, event_rates, horizon, pool))

    def test_idle_blocks_grow_to_a_cap(self):
        # 100 s of the default table is about 11,800 wakeups
        profile = NoiseProfile("idle-background", seed=4)
        sizes = [len(starts) for _, starts, _ in noise_stream(profile, 100_000_000, 8)]
        assert sizes[:4] == [128, 256, 512, 1024]
        assert all(n == 1024 for n in sizes[4:-1]) and 0 < sizes[-1] <= 1024
        assert _items(noise_stream(profile, 100_000_000, 8)) == _idle_reference(
            4, IDLE_EVENT_RATES, 100_000_000, list(range(8)))

    def test_checks_run_before_the_first_interval(self):
        too_many = [NoiseProfile("constant-load", constant_cores=3),
                    NoiseProfile("custom", toggle_cores=3)]
        for profile in too_many:
            with pytest.raises(DomainError):
                noise_stream(profile, 1_000_000, 8, cores=[6, 7])
        with pytest.raises(DomainError):
            noise_stream(NoiseProfile("idle-background"), 1_000_000, 8, cores=[8])

    @pytest.mark.parametrize("rates", [{1: -1.0}, {1: float("nan")}, {1: float("inf")},
                                       {1: 1e308, 2: 1e308}, {1: 1e9}, {1: 6e5, 2: 5e5}])
    def test_rates_must_be_nonnegative_with_a_bounded_sum(self, rates):
        # past 1e6/s a run draws wakeups by the billion; an infinite total
        # rate keeps them at time 0 without end
        with pytest.raises(DomainError):
            NoiseProfile("idle-background", event_rates=rates)
        NoiseProfile("idle-background", event_rates={1: 5e5, 2: 5e5})

    def test_inverted_duration_bounds_rejected(self):
        with pytest.raises(DomainError):
            NoiseProfile("custom", toggle_min_us=5_000, toggle_max_us=4_000)
        with pytest.raises(DomainError):
            NoiseProfile("custom", toggle_min_us=0)
