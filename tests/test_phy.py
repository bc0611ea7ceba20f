import dataclasses
import gc
import random
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import oracles
from oracles import frequency_at, samples
from strategies import noise_profiles

from turbochannel.phy import SampleSeries, SimulatedChannel, _window_integrals
from turbochannel.turbo import (ActivityTrace, DomainError, FrequencyTrace,
                                NoiseProfile, _coalesce, apply_policy,
                                builtin_policy, noise_stream, step_function)

XEON = builtin_policy("xeon-silver-4108")
RYZEN = builtin_policy("ryzen-2700x-like")
GHZ = 1_000_000_000


def core_activity(sim, core, t0, t1):
    """A core's activity on [t0, t1), coalesced and clipped to the span, as
    [start, end) rows."""
    starts, ends = sim._live(t0, t1, (core,))
    return np.column_stack((starts, np.minimum(ends, t1))).tolist()


def whole_activity(sim, core):
    """A core's activity over the whole horizon, as [start, end) rows."""
    return core_activity(sim, core, 0, sim.horizon_us)


def quiet_sim(**kw):
    kw.setdefault("tx_core_count", 2)
    kw.setdefault("jitter_sigma", 0.0)
    kw.setdefault("horizon_us", 1_000_000)
    horizon = kw.pop("horizon_us")
    return SimulatedChannel(XEON, horizon, **kw)


class TestTransmit:
    def test_empty_schedule_empty_trace(self):
        sim = quiet_sim()
        assert sim.transmit(sim.sender, (), 0) == []
        assert all(len(whole_activity(sim, core)) == 0 for core in range(8))

    def test_marks_activate_all_tx_cores(self):
        sim = quiet_sim()
        entries = sim.transmit(sim.sender, ((0, 7_000),), 0)
        assert entries == [(0, 7_000)]
        assert whole_activity(sim, 0) == [[0, 7_000]]
        assert whole_activity(sim, 1) == [[0, 7_000]]
        active = [core for core in range(8)
                  if any(s <= 3_000 < e for s, e in whole_activity(sim, core))]
        assert active == [0, 1]

    def test_ack_marks_slip_past_receiver_suspensions(self):
        # an ack is marked on the receiver's core and an idle transmit core,
        # and the receiver's suspension of [1, 3) ms delays it by 2 ms; the
        # sender's suspension of [2.5, 6) ms delays only the sender's marks
        sim = quiet_sim(preempt_intervals={"receiver": [(1_000, 3_000)],
                                           "sender": [(2_500, 6_000)]})
        assert sim.receiver.mark_cores == (2, 1)
        entries = sim.transmit(sim.receiver, ((2_000, 5_000),), 0)
        assert entries == [(4_000, 7_000)]
        assert whole_activity(sim, 2) == [[1_000, 3_000], [4_000, 7_000]]
        assert whole_activity(sim, 1) == [[4_000, 7_000]]
        assert whole_activity(sim, 0) == [[2_500, 6_000]]
        assert sim.transmit(sim.sender, ((2_000, 5_000),), 0) == [(2_000, 8_500)]

    def test_marks_clipped_at_the_horizon(self):
        sim = quiet_sim(horizon_us=10_000)
        entries = sim.transmit(sim.sender,
                               ((2_000, 4_000), (6_000, 20_000), (12_000, 14_000)), 0)
        assert entries == [(2_000, 4_000), (6_000, 10_000)]
        assert whole_activity(sim, 1) == [[2_000, 4_000], [6_000, 10_000]]

    def test_preemption_delays_transitions(self):
        # suspension of [4, 7) ms; an entry starting at 5 ms slips by 3 ms
        sim = quiet_sim(preempt_intervals={"sender": [(4_000, 7_000)]})
        entries = sim.transmit(sim.sender, ((5_000, 12_000),), 0)
        assert entries == [(8_000, 15_000)]
        # the suspended core keeps running another task
        assert whole_activity(sim, 0) == [[4_000, 7_000], [8_000, 15_000]]
        assert whole_activity(sim, 1) == [[8_000, 15_000]]

    def test_preemption_before_anchor_ignored(self):
        sim = quiet_sim(preempt_intervals={"sender": [(4_000, 7_000)]})
        entries = sim.transmit(sim.sender, ((10_000, 12_000),), 9_000)
        assert entries == [(10_000, 12_000)]
        assert whole_activity(sim, 1) == [[10_000, 12_000]]


class TestShiftForPreemption:
    @settings(max_examples=300, deadline=None)
    @given(role=st.sampled_from(["sender", "receiver"]),
           suspensions=st.lists(st.tuples(st.integers(0, 30).map(lambda k: k * 1_000)
                                          | st.integers(0, 40_000),
                                          st.integers(1, 12).map(lambda k: k * 1_000)
                                          | st.integers(1, 15_000)),
                                max_size=8),
           data=st.data())
    def test_matches_the_scan_from_the_first_suspension(self, role, suspensions, data):
        # whole-millisecond starts and lengths nest and overlap suspensions,
        # and put anchors and progress times on their bounds
        suspensions = sorted((s, s + length) for s, length in suspensions)
        inside = [st.integers(s, e) for s, e in suspensions]
        anchor = data.draw(st.one_of(st.integers(0, 60_000), *inside))
        times = sorted(data.draw(st.lists(st.integers(0, 40_000).map(anchor.__add__)
                                          | st.one_of(st.integers(0, 80_000), *inside),
                                          max_size=12)))
        sim = quiet_sim(preempt_intervals={role: suspensions})
        assert (getattr(sim, role).shift_for_preemption(times, anchor)
                == oracles.shift_for_preemption(suspensions, times, anchor))

    @pytest.mark.parametrize("suspensions, anchor, progress, wall", [
        # a suspension nested in one that started before the anchor adds
        # its end minus the anchor, a negative delay: 25000 by their union
        ([(0, 10_000), (2_000, 3_000)], 5_000, 20_000, 23_000),
        # a nested one adds its whole length again: 11000 by their union
        ([(0, 10_000), (2_000, 8_000)], 0, 1_000, 17_000),
    ])
    def test_nested_suspensions_each_add_their_own_delay(self, suspensions, anchor,
                                                        progress, wall):
        sim = quiet_sim(preempt_intervals={"sender": suspensions})
        assert sim.sender.shift_for_preemption([progress], anchor) == [wall]


class TestSampleFrequency:
    def test_constant_top_frequency_counts(self):
        sim = quiet_sim()
        sim.commit_core(0, 0, 100_000)  # one resident core
        series = sim.sample_frequency(sim.receiver, 1_000, (0, 50_000))
        # two active cores stay at 3.0 GHz: 3e9 * 1 ms = 3,000,000 ops
        assert len(series) > 0
        assert set(series.counts.tolist()) == {3_000_000}
        assert not series.missing.any()

    def test_split_window_integrates_exactly(self):
        # frequency 3.0 GHz for the first half of a window, 2.7 GHz after
        sim = SimulatedChannel(XEON, 100_000, tx_core_count=2, jitter_sigma=0.0,
                               seed=99)
        # pin the sampling grid half a period off the PCU ticks, then wake
        # two extra cores at a tick so the change lands mid-window
        sim.receiver.grid_frac = 0.5
        flip = 11_000
        sim.commit_core(4, flip, 80_000)
        sim.commit_core(5, flip, 80_000)
        series = sim.sample_frequency(sim.receiver, 1_000, (500, 60_000))
        idx = (flip - 500 - series.start_us) // 1_000
        window_counts = series.counts.tolist()
        assert window_counts[idx] == 2_850_000
        assert window_counts[idx - 1] == 3_000_000
        assert window_counts[idx + 1] == 2_700_000

    def test_fully_preempted_window_missing(self):
        sim = quiet_sim(preempt_intervals={"receiver": [(10_000, 14_000)]})
        series = sim.sample_frequency(sim.receiver, 1_000, (0, 30_000))
        start = series.start_us
        full = [i for i in range(len(series))
                if start + i * 1_000 >= 10_000 and start + (i + 1) * 1_000 <= 14_000]
        assert full and all(series.missing[i] for i in full)
        assert not series.missing[full[-1] + 2]

    def test_window_below_minimum_rejected(self):
        sim = quiet_sim()
        with pytest.raises(DomainError):
            sim.sample_frequency(sim.receiver, 99, (0, 10_000))

    def test_span_outside_horizon_rejected(self):
        sim = quiet_sim(horizon_us=10_000)
        with pytest.raises(DomainError):
            sim.sample_frequency(sim.receiver, 500, (0, 20_000))

    def test_counts_scale_linearly_with_window(self):
        a = quiet_sim()
        b = quiet_sim()
        sa = a.sample_frequency(a.receiver, 1_000, (0, 40_000))
        sb = b.sample_frequency(b.receiver, 2_000, (0, 40_000))
        assert set((2 * sa.counts).tolist()) == set(sb.counts.tolist())

    def test_settled_counts_take_few_distinct_values(self):
        # marks at bit scale: counts settle onto the policy's level counts
        sim = quiet_sim()
        sim.transmit(sim.sender, ((10_000, 30_000), (50_000, 70_000)), 0)
        series = sim.sample_frequency(sim.receiver, 1_000, (0, 100_000))
        assert len(set(series.counts.tolist())) <= len(XEON.levels) + 1

    def test_receiver_core_counts_toward_activity(self):
        # the sampling core itself holds the package at the top level
        sim = quiet_sim()
        series = sim.sample_frequency(sim.receiver, 1_000, (0, 10_000))
        assert set(series.counts.tolist()) == {3_000_000}

    def test_jitter_is_deterministic_per_seed(self):
        runs = []
        for _ in range(2):
            sim = SimulatedChannel(XEON, 100_000, tx_core_count=2, seed=7)
            series = sim.sample_frequency(sim.receiver, 1_000, (0, 50_000))
            runs.append(series.counts.tolist())
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("field, value", [
        ("jitter_sigma", -0.1), ("jitter_sigma", float("nan")),
        ("jitter_sigma", float("inf"))])
    def test_out_of_range_scales_rejected(self, field, value):
        with pytest.raises(DomainError, match=field):
            quiet_sim(**{field: value})

    def test_pinned_frequency_override(self):
        sim = SimulatedChannel(XEON, 50_000, tx_core_count=2, jitter_sigma=0.0,
                               pinned_frequency_hz=XEON.base_frequency_hz)
        sim.transmit(sim.sender, ((0, 40_000),), 0)
        series = sim.sample_frequency(sim.receiver, 1_000, (0, 40_000))
        assert set(series.counts.tolist()) == {1_800_000}


class TestTimelineConsistency:
    def test_truncate_clips_committed_activity(self):
        sim = quiet_sim()
        sim.commit_core(0, 0, 50_000)
        sim.truncate_core_after(0, 20_000)
        tr = sim.frequency_trace(0, 50_000)
        # one core active until 20 ms, then none: stays at top either way
        assert frequency_at(tr, 10_000) == 3_000_000_000

    def test_cut_through_a_preemption_and_committed_activity(self):
        sim = quiet_sim(preempt_intervals={"sender": [(10_000, 20_000)]})
        sim.commit_core(0, 5_000, 30_000)
        sim.commit_core(0, 40_000, 50_000)
        assert whole_activity(sim, 0) == [[5_000, 30_000], [40_000, 50_000]]
        sim.truncate_core_after(0, 15_000)
        # the preempting task keeps the core running past the cut
        assert whole_activity(sim, 0) == [[5_000, 20_000]]
        sim.commit_core(0, 25_000, 26_000)
        sim.truncate_core_after(0, 12_000)
        assert whole_activity(sim, 0) == [[5_000, 20_000]]

    def test_cut_at_a_row_start_drops_the_row_and_at_its_end_keeps_it(self):
        sim = quiet_sim()
        for start, end in [(1_000, 2_000), (3_000, 4_000), (5_000, 6_000)]:
            sim.commit_core(1, start, end)
        sim.truncate_core_after(1, 5_000)
        assert whole_activity(sim, 1) == [[1_000, 2_000], [3_000, 4_000]]
        sim.truncate_core_after(1, 4_000)
        sim.truncate_core_after(1, 3_000)
        assert whole_activity(sim, 1) == [[1_000, 2_000]]
        sim.truncate_core_after(1, 0)
        assert whole_activity(sim, 1) == []

    def test_out_of_order_commit_bridging_two_rows_leaves_one(self):
        sim = quiet_sim()
        for start, end in [(20_000, 30_000), (0, 10_000), (5_000, 25_000)]:
            sim.commit_core(1, start, end)
        assert (sim._starts[1], sim._ends[1]) == ([0], [30_000])
        # rows that only touch it are bridged too
        for start, end in [(40_000, 50_000), (60_000, 70_000), (50_000, 60_000)]:
            sim.commit_core(1, start, end)
        assert (sim._starts[1], sim._ends[1]) == ([0, 40_000], [30_000, 70_000])

    def test_repeated_commit_changes_nothing(self):
        # the sender commits its listen span again when it samples it
        sim = quiet_sim()
        for start, end in [(0, 10_000), (20_000, 30_000), (20_000, 30_000),
                           (0, 10_000), (22_000, 28_000)]:
            sim.commit_core(0, start, end)
        assert (sim._starts[0], sim._ends[0]) == ([0, 20_000], [10_000, 30_000])

    def test_suspension_over_a_commit_counts_the_core_once(self):
        # core 0 holds the package at the top level with the receiver's
        # core; a third active core would pull it down to 2.7 GHz
        sim = quiet_sim(preempt_intervals={"receiver": [(10_000, 20_000)]})
        sim.commit_core(0, 0, 50_000)
        sim.commit_core(sim.receiver.sampling_core, 15_000, 25_000)
        assert core_activity(sim, 2, 12_000, 22_000) == [[12_000, 22_000]]
        assert sim.frequency_trace(12_000, 22_000).segments.tolist() == [
            [12_000, 3 * GHZ]]

    def test_noise_profiles_feed_the_timeline(self):
        profile = NoiseProfile("constant-load", constant_cores=4)
        sim = SimulatedChannel(XEON, 50_000, tx_core_count=2, jitter_sigma=0.0,
                               noise=[profile])
        series = sim.sample_frequency(sim.receiver, 1_000, (0, 40_000))
        # 4 background cores + the sampling core = 5 active: all-core level
        assert set(series.counts.tolist()) == {2_100_000}


def _spans():
    # whole milliseconds make transitions meet PCU ticks and each other;
    # lengths up to 0.3 s reach past the slowest recovery ramp
    return st.integers(1, 4).map(lambda k: k * 1_000) | st.integers(1, 300_000)


class TestWindowedWalk:
    HORIZON = 1_000_000

    @pytest.mark.parametrize("policy", [XEON, RYZEN,
                                        dataclasses.replace(XEON, recovery_delay_us=3_000)],
                             ids=["xeon", "ryzen", "xeon-3ms-ramp"])
    @settings(max_examples=150, deadline=None)
    @given(resident=st.integers(0, 3),
           intervals=st.lists(st.tuples(st.integers(0, 7), _spans(), _spans()),
                              min_size=1, max_size=20),
           queries=st.lists(st.tuples(st.integers(0, 40).map(lambda k: k * 1_000)
                                      | st.integers(0, HORIZON - 1),
                                      st.integers(1, 200_000)),
                            min_size=1, max_size=5))
    def test_window_matches_the_whole_trace_walk(self, policy, resident, intervals,
                                                 queries):
        # resident cores park the package next to a level bound, so a single
        # interval moves the frequency; each core's intervals follow each
        # other after the drawn gaps
        sim = SimulatedChannel(policy, self.HORIZON, tx_core_count=2)
        spans = [(core, 0, self.HORIZON) for core in range(resident)]
        cursor = [0] * 8
        for core, gap, length in intervals:
            start = cursor[core] + gap
            cursor[core] = min(start + length, self.HORIZON)
            if start < self.HORIZON:
                spans.append((core, start, cursor[core]))
        for core, start, end in spans:
            sim.commit_core(core, start, end)
        per_core = {core: _coalesce(np.array([(s, e) for c, s, e in spans if c == core],
                                             dtype=np.int64).reshape(-1, 2)).tolist()
                    for core in range(8)}
        whole = apply_policy(policy, ActivityTrace(8, self.HORIZON, per_core)).segments.tolist()
        for a, length in queries:
            b = min(a + length, self.HORIZON)
            later = [(max(s, a), f) for s, f in whole if s < b]
            clipped = [seg for seg, nxt in zip(later, later[1:] + [(b, None)])
                       if nxt[0] > a]
            assert sim.frequency_trace(a, b) == FrequencyTrace(clipped, b)

    @pytest.mark.parametrize("core2, query", [
        # five cores pull the package down to 2.1 GHz at 1 ms; from 2 ms on
        # the target alternates between 2.7 and 3.0 GHz every 2 ms, so each
        # change restarts the 3 ms ramp and it never fires
        ([(1_000, 4_000), (6_000, 8_000), (10_000, 12_000)], 11_000),
        # the 2.7 GHz ramp decided at 2 ms is replaced by a 3.0 GHz one at
        # 4 ms; a lookback that starts between ticks missed the 1 ms decision
        ([(1_000, 3_001)], 6_001)])
    def test_ramp_pending_since_before_the_lookback(self, core2, query):
        policy = dataclasses.replace(XEON, recovery_delay_us=3_000)
        sim = SimulatedChannel(policy, 20_000, tx_core_count=2)
        for core in (0, 1):
            sim.commit_core(core, 0, 20_000)
        for core in (3, 4):
            sim.commit_core(core, 1_000, 2_000)
        for start, end in core2:
            sim.commit_core(2, start, end)
        segments = sim.frequency_trace(query, query + 1).segments
        assert segments.tolist() == [[query, 2_100_000_000]]


def _per_suspension_reference(sim, series, suspensions):
    """Window counts from exact integer integrals of the frequency trace,
    each suspension taking its own overlap out of every window it touches."""
    w = series.window_us
    bounds = [series.start_us + i * w for i in range(len(series) + 1)]
    segments = sim.frequency_trace(bounds[0], bounds[-1]).segments.tolist()
    ends = [s for s, _ in segments[1:]] + [bounds[-1]]

    def integral(a, b):
        return sum(f * max(0, min(e, b) - max(s, a))
                   for (s, f), e in zip(segments, ends))

    counts, missing = [], []
    for ws, we in zip(bounds, bounds[1:]):
        total = integral(ws, we) - sum(integral(max(ps, ws), min(pe, we))
                                       for ps, pe in suspensions)
        covered = any(ps <= ws and we <= pe for ps, pe in suspensions)
        counts.append(0 if covered
                      else int(np.rint(max(total, 0) * 1e-6)))
        missing.append(covered)
    return counts, missing


class TestSuspendedSampling:
    HORIZON = 200_000

    @settings(max_examples=150, deadline=None)
    @given(suspensions=st.lists(st.tuples(st.integers(0, 40).map(lambda k: k * 1_000)
                                          | st.integers(0, 60_000),
                                          st.integers(0, 8).map(lambda k: k * 500)
                                          | st.integers(0, 12_000)),
                                max_size=8),
           busy=st.lists(st.tuples(st.integers(3, 7), st.integers(0, 60_000),
                                   st.integers(1, 20_000)), max_size=6),
           window=st.sampled_from([500, 1_000, 1_700]),
           phase=st.sampled_from([0.0, 0.5]) | st.floats(0, 1, exclude_max=True),
           span=st.tuples(st.integers(0, 10_000), st.integers(30_000, 70_000)))
    def test_matches_the_per_suspension_reference(self, suspensions, busy,
                                                  window, phase, span):
        # whole-millisecond starts and half-millisecond lengths make
        # suspensions overlap and, on a grid in phase, meet window bounds
        suspensions = [(s, s + length) for s, length in suspensions]
        sim = SimulatedChannel(XEON, self.HORIZON, tx_core_count=2, jitter_sigma=0.0,
                               preempt_intervals={"receiver": suspensions})
        sim.receiver.grid_frac = phase
        sim.commit_core(0, 0, self.HORIZON)  # park the package next to a level bound
        for core, start, length in busy:
            sim.commit_core(core, start, start + length)
        series = sim.sample_frequency(sim.receiver, window, span)
        counts, missing = _per_suspension_reference(sim, series, suspensions)
        assert series.counts.tolist() == counts
        assert series.missing.tolist() == missing

    @pytest.mark.parametrize("suspensions", [
        [],
        [(1_000, 4_000), (60_000, 70_000)],   # all miss the span
        [(2_000, 10_000)],                    # ends exactly at t0
        [(30_000, 35_000)],                   # starts exactly at t1
        [(2_000, 10_000), (30_000, 35_000), (40_000, 41_000)],
        [(9_000, 10_001)],                    # overlaps the first window
        [(29_999, 30_000)],                   # overlaps the last window
        [(2_000, 10_000), (12_000, 12_500)],  # one misses, the next overlaps
    ])
    @pytest.mark.parametrize("noise_busy", [False, True])
    def test_spans_around_the_suspensions(self, suspensions, noise_busy):
        # the windows run from t0 = 10 ms to t1 = 30 ms; without noise the
        # pool cores hold no intervals at all
        sim = quiet_sim(preempt_intervals={"receiver": suspensions})
        sim.receiver.grid_frac = 0.0
        sim.commit_core(0, 0, 50_000)
        if noise_busy:
            sim.commit_core(sim.noise_pool[0], 12_000, 25_000)
        series = sim.sample_frequency(sim.receiver, 1_000, (10_000, 30_000))
        assert (series.start_us, len(series)) == (10_000, 20)
        assert series.counts.dtype == np.int64
        assert series.missing.dtype == bool
        counts, missing = _per_suspension_reference(sim, series, suspensions)
        assert series.counts.tolist() == counts
        assert series.missing.tolist() == missing

    def test_overlapping_suspensions_covering_a_window_only_together(self):
        # [10, 10.6) and [10.4, 11) ms cover the window [10, 11) between them:
        # each takes its own 0.6 ms out, so the count is 0, yet the window
        # is not missing
        sim = quiet_sim(preempt_intervals={"receiver": [(10_000, 10_600),
                                                        (10_400, 11_000)]})
        sim.receiver.grid_frac = 0.0
        series = sim.sample_frequency(sim.receiver, 1_000, (0, 20_000))
        assert series.start_us == 0
        assert series.counts[9:12].tolist() == [3_000_000, 0, 3_000_000]
        assert not series.missing.any()


class TestWindowIntegrals:
    @pytest.mark.filterwarnings("error")
    def test_a_long_span_wraps_yet_every_window_is_exact(self):
        # about 4,000 s at up to 4 GHz, some of it negative (a rate under
        # overlapping suspensions): the cumulative integral passes 2**63
        rng = random.Random(3)
        span = 4_000_000_000
        seg_t = [0] + sorted(rng.sample(range(1, span), 300))
        seg_f = [rng.randint(3 * GHZ, 4 * GHZ) * (-1 if rng.random() < 0.1 else 1)
                 for _ in seg_t]
        bounds = sorted(rng.sample(range(span), 400))
        ends = seg_t[1:] + [span]

        def integral(a, b):
            return sum(f * max(0, min(e, b) - max(s, a))
                       for s, e, f in zip(seg_t, ends, seg_f))

        assert integral(0, span) > 2**63
        got = _window_integrals(np.array(seg_t), np.array(seg_f), np.array(bounds))
        assert got.dtype == np.int64
        assert got.tolist() == [integral(a, b) for a, b in zip(bounds, bounds[1:])]


class TestSampleSeries:
    def test_samples_view(self):
        s = SampleSeries(0, 100, np.array([5, 7]), np.array([False, True]))
        assert samples(s) == [(0, 5), (100, None)]


def _starts(horizon):
    # plain integers cluster near zero, inside the first expansion; tenths
    # spread the queries so later expansions happen too
    tenths = st.integers(0, 9).map(lambda k: k * horizon // 10)
    return st.integers(0, horizon - 1) | st.builds(
        int.__add__, tenths, st.integers(0, horizon // 10 - 1))


class TestLazyNoise:
    HORIZON = 4_000_000

    def channel(self, policy, profiles, resident):
        sim = SimulatedChannel(policy, self.HORIZON, tx_core_count=2, noise=profiles,
                               seed=11, sender_preempt_rate=3.0,
                               receiver_preempt_rate=3.0)
        # busy transmit cores park the package next to a level bound, so a
        # single noise interval moves the frequency
        for core in range(resident):
            sim.commit_core(core, 0, self.HORIZON)
        return sim

    @settings(max_examples=60, deadline=None)
    @given(policy=st.sampled_from([XEON, RYZEN]),
           profiles=st.lists(noise_profiles(), min_size=1, max_size=3),
           resident=st.integers(0, 2),
           queries=st.lists(st.tuples(st.booleans(), _starts(HORIZON),
                                      st.integers(1, 400_000)),
                            min_size=1, max_size=10))
    def test_matches_a_fully_expanded_channel(self, policy, profiles, resident, queries):
        lazy = self.channel(policy, profiles, resident)
        eager = self.channel(policy, profiles, resident)
        eager.frequency_trace(self.HORIZON - 1, self.HORIZON)  # expands everything
        for sample, start, length in queries:
            end = min(start + length, self.HORIZON)
            if sample:
                a = lazy.sample_frequency(lazy.receiver, 1_000, (start, end))
                b = eager.sample_frequency(eager.receiver, 1_000, (start, end))
                assert a.start_us == b.start_us
                assert a.counts.tolist() == b.counts.tolist()
                assert a.missing.tolist() == b.missing.tolist()
            else:
                assert lazy.frequency_trace(start, end) == eager.frequency_trace(start, end)

    @settings(max_examples=40, deadline=None)
    @given(profiles=st.lists(noise_profiles(), min_size=1, max_size=3),
           ends=st.lists(st.integers(1, 20_000_000), max_size=6))
    def test_split_expansion_equals_one_full_draw(self, profiles, ends):
        # after each expansion, a core's noise is exactly the drawn
        # intervals that start before the frontier (its suspensions are kept
        # apart)
        horizon = 20_000_000
        sim = SimulatedChannel(XEON, horizon, tx_core_count=2, noise=profiles,
                               seed=11, sender_preempt_rate=3.0,
                               receiver_preempt_rate=3.0)
        drawn = [np.column_stack(b) for p in profiles
                 for b in noise_stream(p, horizon, 8, sim.noise_pool)]
        on, starts, stops = np.concatenate([np.empty((0, 3), np.int64), *drawn]).T
        for end in sorted(ends) + [horizon]:
            sim._expand_noise(end)
            for core in range(8):
                read = (on == core) & (starts < sim._frontier)
                expected = np.column_stack([starts[read], stops[read]])
                assert sim._static[core].tolist() == _coalesce(expected).tolist()
        assert sim._frontier == horizon

    def test_query_inside_the_frontier_sees_all_of_it(self):
        # a query ending at 0.1 s expands about a second of noise; a later
        # query inside that second reads noise that was pulled in with it
        profiles = [NoiseProfile("custom", seed=5, toggle_cores=2)]
        lazy = self.channel(XEON, profiles, 1)
        eager = self.channel(XEON, profiles, 1)
        eager.frequency_trace(self.HORIZON - 1, self.HORIZON)
        lazy.frequency_trace(0, 100_000)
        later = (500_000, 900_000)
        assert lazy.frequency_trace(*later) == eager.frequency_trace(*later)
        assert len(eager.frequency_trace(*later).segments) > 1

    def test_a_query_never_writes_into_the_noise_rows(self):
        # the constant load is one row over the whole horizon, so the span
        # starts inside it, and the gather clips that start to the span
        sim = self.channel(XEON, [NoiseProfile("constant-load", constant_cores=1),
                                  NoiseProfile("idle-background", seed=3)], 0)
        sim._expand_noise(self.HORIZON)
        static = [rows.copy() for rows in sim._static]
        span = (1_500_500, 1_700_000)
        first = sim.frequency_trace(*span)
        assert sim.frequency_trace(*span) == first
        assert all(np.array_equal(a, b) for a, b in zip(sim._static, static))
        row = sim._static[sim.noise_pool[0]][:1]
        assert row.tolist() == [[0, self.HORIZON]]
        with pytest.raises(ValueError, match="read-only"):
            row[0, 0] = span[0]

    def test_finished_channel_is_freed_without_the_cycle_collector(self):
        # a channel holds its timeline and its streams' pending noise blocks;
        # nothing it owns points back at it, so dropping it frees them at once
        sim = self.channel(XEON, [NoiseProfile("idle-background", seed=3)], 1)
        sim.sample_frequency(sim.receiver, 1_000, (0, 200_000))
        ref = weakref.ref(sim)
        gc.disable()
        try:
            del sim
            assert ref() is None
        finally:
            gc.enable()

    @pytest.mark.parametrize("pinned", [None, XEON.base_frequency_hz])
    @pytest.mark.parametrize("profile", [NoiseProfile("constant-load", constant_cores=6),
                                         NoiseProfile("custom", toggle_cores=6)])
    def test_too_many_noise_cores_fail_at_construction(self, profile, pinned):
        # the pool is cores 3..7 once the transmitter and receiver are placed
        with pytest.raises(DomainError):
            SimulatedChannel(XEON, 1_000_000, tx_core_count=2, noise=[profile],
                             pinned_frequency_hz=pinned)


def _union(a, b):
    if len(a) == 0:
        return _coalesce(b)
    if len(b) == 0:
        return a
    return _coalesce(np.concatenate([a, b]))


class _RebuiltTimeline:
    """The timeline as it was before it was merged incrementally: each read
    sorts a core's whole committed list and unions it with the core's noise
    and its process's suspensions, and a truncation walks the whole list."""

    def __init__(self, sim):
        self.sim = sim
        self.committed = [[] for _ in sim._static]

    def commit(self, core, start, end):
        if start < end:
            self.committed[core].append((start, end))

    def truncate(self, core, t):
        self.committed[core] = [(s, min(e, t)) for s, e in self.committed[core] if s < t]

    def intervals(self, core):
        dyn = sorted(self.committed[core])
        if core in self.sim._anchored:
            dyn += self.sim._anchored[core].suspensions
        return _union(self.sim._static[core],
                      np.asarray(dyn, dtype=np.int64).reshape(-1, 2))


class TestIncrementalTimeline:
    HORIZON = 4_000_000

    @settings(max_examples=100, deadline=None)
    @given(profiles=st.lists(noise_profiles(), max_size=2), data=st.data())
    def test_matches_the_whole_rebuild(self, profiles, data):
        sim = SimulatedChannel(XEON, self.HORIZON, tx_core_count=2, noise=profiles,
                               seed=11, sender_preempt_rate=40.0,
                               receiver_preempt_rate=40.0)
        ref = _RebuiltTimeline(sim)
        cores = st.integers(0, 7)

        def time_near(core):
            # at, next to or around the bounds of this core's commits and of
            # all its activity, so commits touch and overlap out of order and
            # cuts land before, inside and after its activity; or anywhere on
            # the horizon
            bounds = [t for row in ref.committed[core] for t in row]
            bounds += [t for row in whole_activity(sim, core)[:200] for t in row]
            near = st.builds(int.__add__, st.sampled_from(bounds),
                             st.sampled_from([0, -1, 1]) | st.integers(-3_000, 3_000))
            t = data.draw(near | _starts(self.HORIZON) if bounds else _starts(self.HORIZON))
            return min(max(t, 0), self.HORIZON - 1)

        for _ in range(data.draw(st.integers(1, 12))):
            step = data.draw(st.sampled_from(["commit", "truncate", "query"]))
            if step == "query":
                # reaching past the frontier merges fresh noise in
                start = data.draw(_starts(self.HORIZON))
                sim.frequency_trace(start, min(start + data.draw(st.integers(1, 400_000)),
                                               self.HORIZON))
            else:
                # queued commits meet a truncation or a read together
                for _ in range(data.draw(st.integers(1, 4))):
                    core = data.draw(cores)
                    start = time_near(core)
                    end = min(start + data.draw(_spans()), self.HORIZON)
                    sim.commit_core(core, start, end)
                    ref.commit(core, start, end)
                if step == "truncate":
                    core = data.draw(cores)
                    t = time_near(core)
                    sim.truncate_core_after(core, t)
                    ref.truncate(core, t)
            for core in range(8):
                assert whole_activity(sim, core) == ref.intervals(core).tolist()


class TestGather:
    HORIZON = 2_000_000

    @settings(max_examples=150, deadline=None)
    @given(profiles=st.lists(noise_profiles(), max_size=2),
           suspensions=st.fixed_dictionaries({
               role: st.lists(st.tuples(st.integers(0, 40).map(lambda k: k * 10_000)
                                        | st.integers(0, 400_000), _spans()),
                              max_size=6)
               for role in ("sender", "receiver")}),
           commits=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 400_000), _spans()),
                            max_size=12),
           cuts=st.lists(st.tuples(st.integers(0, 7), st.integers(0, 400_000)), max_size=3),
           span=st.tuples(st.integers(0, 400_000), st.integers(1, 200_000)))
    def test_matches_each_cores_coalesced_union(self, profiles, suspensions, commits,
                                                 cuts, span):
        # commits land on noise cores and on sampling cores, and both
        # processes' suspensions overlap each other and the commits
        sim = SimulatedChannel(XEON, self.HORIZON, tx_core_count=2, noise=profiles,
                               preempt_intervals={
                                   role: [(s, s + n) for s, n in rows]
                                   for role, rows in suspensions.items()})
        for core, start, length in commits:
            sim.commit_core(core, start, min(start + length, self.HORIZON))
        for core, t in cuts:
            sim.truncate_core_after(core, t)
        t0, t1 = span[0], span[0] + span[1]
        sim._expand_noise(t1)

        # the reference: each core's noise, commits and suspensions in one
        # coalesced union, then the rows that reach into the span, clipped
        rows = []
        for core in range(8):
            sources = [sim._static[core], np.array([sim._starts[core], sim._ends[core]],
                                                   dtype=np.int64).T]
            if core in sim._anchored:
                sources.append(np.array(sim._anchored[core].suspensions,
                                        dtype=np.int64).reshape(-1, 2))
            union = _coalesce(np.concatenate(sources))
            rows.append(np.clip(union[(union[:, 1] > t0) & (union[:, 0] < t1)], t0, t1))
        rows = np.concatenate(rows)
        want = step_function(rows[:, 0], rows[:, 1], t0)
        got = step_function(*sim._live(t0, t1, range(8)), t0)

        # the gather keeps ends past t1: the steps agree up to t1
        def before_t1(times, counts):
            k = times.searchsorted(t1)
            return times[:k].tolist(), counts[:k].tolist()

        assert before_t1(*got) == before_t1(*want)
