import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from strategies import noise_profiles

from turbochannel.phy import (SampleSeries, SimulatedChannel, TxSchedule,
                              sample_frequency, transmit)
from turbochannel.turbo import DomainError, NoiseProfile, builtin_policy

XEON = builtin_policy("xeon-silver-4108")
RYZEN = builtin_policy("ryzen-2700x-like")


def quiet_sim(**kw):
    kw.setdefault("tx_core_count", 2)
    kw.setdefault("jitter_sigma", 0.0)
    kw.setdefault("horizon_us", 1_000_000)
    horizon = kw.pop("horizon_us")
    return SimulatedChannel(XEON, horizon, **kw)


class TestTxSchedule:
    def test_rejects_overlap(self):
        with pytest.raises(DomainError):
            TxSchedule(((0, 100), (50, 200)), 2)

    def test_rejects_empty_entry(self):
        with pytest.raises(DomainError):
            TxSchedule(((100, 100),), 1)


class TestTransmit:
    def test_empty_schedule_empty_trace(self):
        sim = quiet_sim()
        trace = transmit(sim.sender, TxSchedule((), 2))
        assert trace.total_intervals() == 0

    def test_marks_activate_all_tx_cores(self):
        sim = quiet_sim()
        trace = transmit(sim.sender, TxSchedule(((0, 7_000),), 2))
        assert trace.intervals(0) == [(0, 7_000)]
        assert trace.intervals(1) == [(0, 7_000)]
        assert trace.active_count_at(3_000) == 2

    def test_receiver_cannot_transmit(self):
        sim = quiet_sim()
        with pytest.raises(DomainError):
            transmit(sim.receiver, TxSchedule(((0, 100),), 1))

    def test_schedule_beyond_horizon_rejected(self):
        sim = quiet_sim(horizon_us=10_000)
        with pytest.raises(DomainError):
            transmit(sim.sender, TxSchedule(((0, 20_000),), 2))

    def test_preemption_delays_transitions(self):
        # suspension of [4, 7) ms; an entry starting at 5 ms slips by 3 ms
        sim = quiet_sim(preempt_intervals={"sender": [(4_000, 7_000)]})
        trace = transmit(sim.sender, TxSchedule(((5_000, 12_000),), 2),
                         anchor_us=0)
        assert trace.intervals(0) == [(8_000, 15_000)]

    def test_preemption_before_anchor_ignored(self):
        sim = quiet_sim(preempt_intervals={"sender": [(4_000, 7_000)]})
        trace = transmit(sim.sender, TxSchedule(((10_000, 12_000),), 2),
                         anchor_us=9_000)
        assert trace.intervals(0) == [(10_000, 12_000)]


class TestSampleFrequency:
    def test_constant_top_frequency_counts(self):
        sim = quiet_sim()
        sim.commit_core(0, 0, 100_000)  # one resident core
        series = sample_frequency(sim.receiver, 1_000, (0, 50_000))
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
        sim._grid_frac["receiver"] = 0.5
        flip = 11_000
        sim.commit_core(4, flip, 80_000)
        sim.commit_core(5, flip, 80_000)
        series = sample_frequency(sim.receiver, 1_000, (500, 60_000))
        idx = (flip - 500 - series.start_us) // 1_000
        window_counts = series.counts.tolist()
        assert window_counts[idx] == 2_850_000
        assert window_counts[idx - 1] == 3_000_000
        assert window_counts[idx + 1] == 2_700_000

    def test_fully_preempted_window_missing(self):
        sim = quiet_sim(preempt_intervals={"receiver": [(10_000, 14_000)]})
        series = sample_frequency(sim.receiver, 1_000, (0, 30_000))
        start = series.start_us
        full = [i for i in range(len(series))
                if start + i * 1_000 >= 10_000 and start + (i + 1) * 1_000 <= 14_000]
        assert full and all(series.missing[i] for i in full)
        assert not series.missing[full[-1] + 2]

    def test_window_below_minimum_rejected(self):
        sim = quiet_sim()
        with pytest.raises(DomainError):
            sample_frequency(sim.receiver, 99, (0, 10_000))

    def test_span_outside_horizon_rejected(self):
        sim = quiet_sim(horizon_us=10_000)
        with pytest.raises(DomainError):
            sample_frequency(sim.receiver, 500, (0, 20_000))

    def test_counts_scale_linearly_with_window(self):
        a = quiet_sim()
        b = quiet_sim()
        sa = sample_frequency(a.receiver, 1_000, (0, 40_000))
        sb = sample_frequency(b.receiver, 2_000, (0, 40_000))
        assert set((2 * sa.counts).tolist()) == set(sb.counts.tolist())

    def test_settled_counts_take_few_distinct_values(self):
        # marks at bit scale: counts settle onto the policy's level counts
        sim = quiet_sim()
        transmit(sim.sender, TxSchedule(((10_000, 30_000), (50_000, 70_000)), 2))
        series = sample_frequency(sim.receiver, 1_000, (0, 100_000))
        assert len(set(series.counts.tolist())) <= len(XEON.levels) + 1

    def test_receiver_core_counts_toward_activity(self):
        # the sampling core itself holds the package at the top level
        sim = quiet_sim()
        series = sample_frequency(sim.receiver, 1_000, (0, 10_000))
        assert set(series.counts.tolist()) == {3_000_000}

    def test_jitter_is_deterministic_per_seed(self):
        runs = []
        for _ in range(2):
            sim = SimulatedChannel(XEON, 100_000, tx_core_count=2, seed=7)
            series = sample_frequency(sim.receiver, 1_000, (0, 50_000))
            runs.append(series.counts.tolist())
        assert runs[0] == runs[1]

    def test_pinned_frequency_override(self):
        sim = SimulatedChannel(XEON, 50_000, tx_core_count=2, jitter_sigma=0.0,
                               pinned_frequency_hz=XEON.base_frequency_hz)
        transmit(sim.sender, TxSchedule(((0, 40_000),), 2))
        series = sample_frequency(sim.receiver, 1_000, (0, 40_000))
        assert set(series.counts.tolist()) == {1_800_000}


class TestTimelineConsistency:
    def test_truncate_clips_committed_activity(self):
        sim = quiet_sim()
        sim.commit_core(0, 0, 50_000)
        sim.truncate_core_after(0, 20_000)
        tr = sim.frequency_trace(0, 50_000)
        # one core active until 20 ms, then none: stays at top either way
        assert tr.frequency_at(10_000) == 3_000_000_000

    def test_noise_profiles_feed_the_timeline(self):
        profile = NoiseProfile("constant-load", constant_cores=4)
        sim = SimulatedChannel(XEON, 50_000, tx_core_count=2, jitter_sigma=0.0,
                               noise=[profile])
        series = sample_frequency(sim.receiver, 1_000, (0, 40_000))
        # 4 background cores + the sampling core = 5 active: all-core level
        assert set(series.counts.tolist()) == {2_100_000}


class TestSampleSeries:
    def test_samples_view(self):
        s = SampleSeries(0, 100, np.array([5, 7]), np.array([False, True]))
        assert s.samples == [(0, 5), (100, None)]


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
                a = sample_frequency(lazy.receiver, 1_000, (start, end))
                b = sample_frequency(eager.receiver, 1_000, (start, end))
                assert a.start_us == b.start_us
                assert a.counts.tolist() == b.counts.tolist()
                assert a.missing.tolist() == b.missing.tolist()
            else:
                assert lazy.frequency_trace(start, end) == eager.frequency_trace(start, end)

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

    @pytest.mark.parametrize("pinned", [None, XEON.base_frequency_hz])
    @pytest.mark.parametrize("profile", [NoiseProfile("constant-load", constant_cores=6),
                                         NoiseProfile("custom", toggle_cores=6)])
    def test_too_many_noise_cores_fail_at_construction(self, profile, pinned):
        # the pool is cores 3..7 once the transmitter and receiver are placed
        with pytest.raises(DomainError):
            SimulatedChannel(XEON, 1_000_000, tx_core_count=2, noise=[profile],
                             pinned_frequency_hz=pinned)
