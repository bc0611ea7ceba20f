import dataclasses
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from strategies import noise_profiles

from turbochannel.turbo import (ActivityTrace, DomainError, NoiseProfile,
                                TurboPolicy, _coalesce, _poisson_events,
                                apply_policy, builtin_policy, generate_noise,
                                merge, noise_stream, turbo_frequency)

XEON = builtin_policy("xeon-silver-4108")

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
        assert ft.segments == [(0, 3_000_000_000)]

    def test_step_up_and_down(self):
        # 3 cores awake during [10, 20) ms on top of one resident core
        act = ActivityTrace(8, 40_000, {0: [(0, 40_000)],
                                        1: [(10_000, 20_000)],
                                        2: [(10_000, 20_000)]})
        ft = apply_policy(XEON, act)
        assert ft.segments == [(0, 3_000_000_000),
                               (10_000, 2_700_000_000),
                               (20_000, 3_000_000_000)]

    def test_slow_recovery_delays_the_rise(self):
        slow = dataclasses.replace(XEON, recovery_delay_us=400_000)
        act = ActivityTrace(8, 500_000, {0: [(0, 500_000)],
                                         1: [(10_000, 20_000)],
                                         2: [(10_000, 20_000)]})
        ft = apply_policy(slow, act)
        assert ft.segments == [(0, 3_000_000_000),
                               (10_000, 2_700_000_000),
                               (420_000, 3_000_000_000)]

    def test_core_count_mismatch(self):
        with pytest.raises(DomainError):
            apply_policy(XEON, ActivityTrace(4, 1000, {0: [(0, 1000)]}))

    def test_changes_only_at_ticks(self):
        act = ActivityTrace(8, 30_000, {0: [(0, 30_000)],
                                        1: [(4_321, 9_876)],
                                        2: [(4_321, 9_876)]})
        ft = apply_policy(XEON, act)
        assert all(start % XEON.pcu_period_us == 0 for start, _ in ft.segments)

    def test_sub_period_blip_between_ticks_is_missed(self):
        act = ActivityTrace(8, 10_000, {0: [(0, 10_000)],
                                        1: [(2_100, 2_900)],
                                        2: [(2_100, 2_900)]})
        ft = apply_policy(XEON, act)
        assert ft.segments == [(0, 3_000_000_000)]

    def test_settled_interval_matches_table(self):
        # constant activity much longer than the PCU period settles exactly
        act = ActivityTrace(8, 100_000, {c: [(0, 100_000)] for c in range(5)})
        ft = apply_policy(XEON, act)
        assert ft.segments == [(0, 2_100_000_000)]


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

    def test_vm_interrupt_events_on_given_cores(self):
        profile = NoiseProfile("vm-interrupts", seed=1, interrupt_rate=50.0)
        trace = generate_noise(profile, 1_000_000, 8, cores=[3])
        assert trace.total_intervals() > 10
        for core in range(8):
            if core != 3:
                assert trace.intervals(core) == []

    def test_noise_only_touches_allowed_cores(self):
        profile = NoiseProfile("idle-background", seed=2)
        trace = generate_noise(profile, 1_000_000, 8, cores=[6, 7])
        for core in range(6):
            assert trace.intervals(core) == []


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
        items = list(noise_stream(profile, horizon, 8, cores))
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
           st.dictionaries(st.integers(1, 8), st.floats(0, 300), max_size=4))
    def test_idle_draws_match_random_choices(self, seed, event_rates):
        # the stream unrolls rng.choices; the plain call is the reference
        profile = NoiseProfile("idle-background", seed=seed, event_rates=event_rates)
        horizon, pool = 2_000_000, [3, 5, 6]
        rates = {d: r for d, r in event_rates.items() if r > 0}
        durations = sorted(rates)
        rng = random.Random(f"noise:idle-background:{seed}")
        expected = []
        for i, t in enumerate(_poisson_events(rng, sum(rates.values()), horizon)):
            dur = rng.choices(durations, [rates[d] for d in durations])[0] * 1_000
            expected.append((pool[i % len(pool)], t, min(t + dur, horizon)))
        assert list(noise_stream(profile, horizon, 8, pool)) == expected

    def test_checks_run_before_the_first_interval(self):
        too_many = [NoiseProfile("constant-load", constant_cores=3),
                    NoiseProfile("custom", toggle_cores=3)]
        for profile in too_many:
            with pytest.raises(DomainError):
                noise_stream(profile, 1_000_000, 8, cores=[6, 7])
        with pytest.raises(DomainError):
            noise_stream(NoiseProfile("idle-background"), 1_000_000, 8, cores=[8])

    def test_inverted_duration_bounds_rejected(self):
        with pytest.raises(DomainError):
            NoiseProfile("vm-interrupts", preempt_min_us=5_000, preempt_max_us=4_000)
        with pytest.raises(DomainError):
            NoiseProfile("custom", toggle_min_us=0)
