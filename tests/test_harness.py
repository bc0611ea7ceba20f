import re
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import oracles
from oracles import count_frequency_changes, parse_csv
from strategies import noise_profiles

from turbochannel import harness
from turbochannel.fec import rs_correctable
from turbochannel.harness import (ConfigError, Scenario, emit_csv,
                                  load_scenario, noise_change_histogram,
                                  parse_scenario_config,
                                  plan_marking_cores, plan_threshold,
                                  probe_core_count, record_packet_outcomes,
                                  run_one, run_scenario)
from turbochannel.turbo import (ActivityTrace, FrequencyTrace, NoiseProfile,
                                builtin_policy, turbo_frequency)

XEON = builtin_policy("xeon-silver-4108")
RYZEN = builtin_policy("ryzen-2700x-like")
GHZ = 1_000_000_000


def scenario(**kw):
    kw.setdefault("name", "test")
    kw.setdefault("policy", XEON)
    kw.setdefault("bit_times_us", (7_000,))
    kw.setdefault("payload_bytes", 16)
    kw.setdefault("seeds", (1, 2))
    return Scenario(**kw)


class TestPlanning:
    def test_idle_marks_with_two_cores(self):
        k, viable = plan_marking_cores(XEON, 1, 6)
        assert (k, viable) == (2, True)

    def test_single_busy_core_needs_three(self):
        # one guard level: a lone transient wakeup must not reach the
        # marking frequency
        k, viable = plan_marking_cores(XEON, 2, 5)
        assert (k, viable) == (3, True)

    def test_two_busy_cores(self):
        k, viable = plan_marking_cores(XEON, 3, 4)
        assert (k, viable) == (2, True)

    def test_saturated_band_not_viable(self):
        k, viable = plan_marking_cores(XEON, 5, 2)
        assert viable is False

    def test_threshold_midpoints(self):
        assert plan_threshold(XEON, 1_000, 1, 2) == 2_850_000.0
        assert plan_threshold(XEON, 1_000, 3, 3) == 2_400_000.0

    def test_budget_enforced(self):
        with pytest.raises(ConfigError):
            scenario(constant_cores=5, tx_cores=3)

    @pytest.mark.parametrize("field, value", [
        ("max_retries", -1), ("jitter_sigma", -0.1), ("jitter_sigma", float("nan")),
        ("jitter_sigma", float("inf"))])
    def test_out_of_range_fields_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            scenario(**{field: value})


class TestCountFrequencyChanges:
    def test_constant_trace_empty(self):
        tr = FrequencyTrace([(0, 3 * GHZ)], 1_000_000)
        assert count_frequency_changes(tr) == {}

    def test_single_dip(self):
        tr = FrequencyTrace([(0, 3 * GHZ), (50_000, 2_700_000_000),
                             (60_000, 3 * GHZ)], 1_000_000)
        assert count_frequency_changes(tr) == {10: 1}

    def test_dip_through_two_levels_is_one_interval(self):
        tr = FrequencyTrace([(0, 3 * GHZ), (10_000, 2_700_000_000),
                             (12_000, 2_100_000_000), (14_000, 3 * GHZ)],
                            1_000_000)
        assert count_frequency_changes(tr) == {4: 1}

    def test_trailing_dip_counted(self):
        tr = FrequencyTrace([(0, 3 * GHZ), (997_000, 2_700_000_000)], 1_000_000)
        assert count_frequency_changes(tr) == {3: 1}


class TestNoiseHistogram:
    def test_mean_rates_match_the_event_table(self):
        totals = []
        ones = []
        for seed in range(1, 21):
            profile = NoiseProfile("idle-background", seed=seed)
            hist = noise_change_histogram(XEON, [profile], 1_000_000)
            totals.append(sum(hist.values()))
            ones.append(hist.get(1, 0))
        mean_total = sum(totals) / len(totals)
        mean_ones = sum(ones) / len(ones)
        assert 118 * 0.9 <= mean_total <= 118 * 1.1
        assert 109 * 0.9 <= mean_ones <= 109 * 1.1

    def test_durations_preserved(self):
        profile = NoiseProfile("idle-background", seed=3,
                               event_rates={4: 30.0})
        hist = noise_change_histogram(XEON, [profile], 1_000_000)
        assert set(hist) == {4}

    def test_probe_sits_at_the_top_level_bound(self):
        assert probe_core_count(XEON) == 2

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([XEON, RYZEN]), st.data(),
           st.sampled_from([1, 999, 1000, 1001]) | st.integers(1, 2_000_000))
    def test_matches_probe_traces_built_from_tuples(self, policy, data, horizon):
        # up to 40 profiles, so that the row cap splits them over several walks
        kinds = noise_profiles(max_cores=6) | _idle(_LONG_EVENTS)
        if horizon <= 10_000:  # a pool core awake at every tick: a top below the policy's
            kinds |= _idle(_EVERY_TICK)
        profiles = data.draw(st.lists(kinds, min_size=1, max_size=40))
        # the row cap a walk takes, lowered so that short cases split too
        cap = data.draw(st.sampled_from([1, 64, harness._WALK_ROWS]))
        # reference: each (profile, pool core) probe trace walked on its own
        expected: dict[int, int] = {}
        for profile in profiles:
            for ms, n in oracles.noise_change_histogram(policy, profile, horizon).items():
                expected[ms] = expected.get(ms, 0) + n
        with mock.patch.object(harness, "_WALK_ROWS", cap):
            assert noise_change_histogram(policy, profiles, horizon) == expected

    @pytest.mark.parametrize("policy, horizon, rows, expected", [
        # the middle slot dips from its tick at 995 ms to the 999.2 ms
        # horizon: 4.2 ms, bucket 4. Walked on, it would last to the tick at
        # 1000 ms, bucket 5
        (XEON, 999_200, [[(10_000, 12_000)], [(995_000, 999_200)], [(500_000, 507_000)]],
         {2: 1, 4: 1, 7: 1}),
        # the first slot's ramp from 905 ms fires 400 ms later, past its
        # horizon: its dip is cut at 100 ms, and the second slot still
        # starts at the top, so its dip lasts 2 ms plus the 400 ms ramp
        (RYZEN, 1_000_000, [[(900_000, 905_000)], [(10_000, 12_000)]], {100: 1, 402: 1}),
    ])
    def test_each_slot_is_cut_at_its_horizon(self, monkeypatch, policy, horizon, rows,
                                             expected):
        # one probe trace per profile, each with noise on pool core 2 only
        noise = [ActivityTrace(8, horizon, {2: ivs}) for ivs in rows]
        monkeypatch.setattr(harness, "generate_noise", lambda profile, *_: noise[profile.seed])
        profiles = [NoiseProfile("idle-background", seed=i) for i in range(len(rows))]
        assert noise_change_histogram(policy, profiles, horizon) == expected


# idle-background rate tables for the slot walk: 400 ms wakeups, so that a
# slow-ramp policy still ramps at a slot's horizon, and wakeups at every
# microsecond on average, so that a pool core is awake at every tick
_LONG_EVENTS = {400: 3.0}
_EVERY_TICK = {1: 1e6}


def _idle(rates):
    return st.builds(NoiseProfile, st.just("idle-background"),
                     seed=st.integers(0, 10_000), event_rates=st.just(rates))


class TestRunScenario:
    def test_turbo_off_breaks_the_channel(self):
        s = scenario(countermeasure="turbo-off", seeds=(1,), max_retries=2)
        r = run_one(s, 7_000, 1)
        assert not r.success

    def test_cstate_restriction_breaks_the_channel(self):
        s = scenario(countermeasure="cstate-restricted", seeds=(1,), max_retries=2)
        r = run_one(s, 7_000, 1)
        assert not r.success

    def test_artificial_noise_degrades_or_kills(self):
        s = scenario(countermeasure="artificial-noise", countermeasure_cores=2,
                     seeds=(1,), max_retries=6, payload_bytes=16)
        r = run_one(s, 7_000, 1)
        assert (not r.success) or r.goodput_bps < 5.0

    def test_report_aggregates(self):
        s = scenario(seeds=(1, 2, 3), idle_noise=False, jitter_sigma=0.0,
                     preempt_tx_rate=0.0, preempt_rx_rate=0.0)
        rep = run_scenario(s)
        assert len(rep.rows) == 3
        g = rep.mean_goodput(7_000)
        assert min(r.goodput_bps for r in rep.rows) <= g <= \
            max(r.goodput_bps for r in rep.rows)
        assert rep.success_rate(7_000) == 1.0


class TestCsv:
    def test_empty_report_header_only(self, tmp_path):
        from turbochannel.harness import ScenarioReport
        out = emit_csv(ScenarioReport("empty"), tmp_path / "r.csv")
        lines = out.read_text().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("scenario,bit_time_ms,seed")

    def test_rows_plus_one_aggregate_per_bit_time(self, tmp_path):
        s = scenario(seeds=tuple(range(1, 11)), idle_noise=False,
                     jitter_sigma=0.0, preempt_tx_rate=0.0, preempt_rx_rate=0.0)
        rep = run_scenario(s)
        out = emit_csv(rep, tmp_path / "r.csv")
        rows = parse_csv(out)
        data = [r for r in rows if r["aggregate"] == ""]
        aggs = [r for r in rows if r["aggregate"] == "mean"]
        assert len(data) == 10
        assert len(aggs) == 1

    def test_round_trip_values(self, tmp_path):
        s = scenario(seeds=(1, 2), idle_noise=False, jitter_sigma=0.0,
                     preempt_tx_rate=0.0, preempt_rx_rate=0.0)
        rep = run_scenario(s)
        out = emit_csv(rep, tmp_path / "r.csv")
        rows = [r for r in parse_csv(out) if r["aggregate"] == ""]
        for parsed, orig in zip(rows, rep.rows):
            assert float(parsed["goodput_bps"]) == orig.goodput_bps
            assert int(parsed["seed"]) == orig.seed

    def test_deterministic_repeat(self, tmp_path):
        s = scenario(seeds=(1, 2))
        a = emit_csv(run_scenario(s), tmp_path / "a.csv").read_bytes()
        b = emit_csv(run_scenario(s), tmp_path / "b.csv").read_bytes()
        assert a == b


class TestRecorder:
    def test_quiet_channel_records_clean_packets(self):
        s = scenario(idle_noise=False, jitter_sigma=0.0,
                     preempt_tx_rate=0.0, preempt_rx_rate=0.0)
        outcomes = record_packet_outcomes(s, 5_000, seed=1, packet_count=12)
        assert len(outcomes) == 12
        assert all(o.corrupted_byte_count == 0 for o in outcomes)

    def test_noisy_channel_shows_correctable_and_broken(self):
        s = scenario(seeds=(1,))
        outcomes = []
        for seed in range(1, 4):
            outcomes += record_packet_outcomes(s, 5_000, seed=seed,
                                               packet_count=40)
        broken = [o for o in outcomes if not o.clean]
        assert broken, "expected at least some corrupted packets at 5 ms/bit"
        from turbochannel.fec import FecModel
        fixable = [o for o in broken if rs_correctable(o, FecModel())]
        assert len(fixable) >= 1


class TestConfigFiles:
    CONFIG = """
# demo scenario
name = demo
policy = xeon-silver-4108
bit_times_ms = 6, 8
payload_bytes = 24
seeds = 1..3
constant_cores = 1
tx_cores = auto
countermeasure = none
max_retries = 5
"""

    def test_parse_basics(self):
        s = parse_scenario_config(self.CONFIG)
        assert s.name == "demo"
        assert s.bit_times_us == (6_000, 8_000)
        assert s.seeds == (1, 2, 3)
        assert s.constant_cores == 1
        assert s.max_retries == 5
        assert s.planned_tx_cores() == 3

    def test_inline_policy(self):
        text = """
name = inline
policy.levels = 2:3.0, 4:2.7, 8:2.1
policy.core_count = 8
policy.base_ghz = 1.8
bit_time_ms = 7
"""
        s = parse_scenario_config(text)
        assert s.policy.levels == ((2, 3 * GHZ), (4, 2_700_000_000),
                                   (8, 2_100_000_000))
        assert turbo_frequency(s.policy, 5) == 2_100_000_000

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigError):
            parse_scenario_config("policy = pentium-99\nbit_time_ms = 7")

    def test_load_from_file(self, tmp_path):
        p = tmp_path / "demo.cfg"
        p.write_text(self.CONFIG)
        s = load_scenario(p)
        assert s.name == "demo"

    def test_garbage_line_rejected(self):
        with pytest.raises(ConfigError):
            parse_scenario_config("this is not a key value line")


class TestReadmeConfigSection:
    """README's "Scenario config format" section is the config reference."""

    @staticmethod
    def _section():
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        return text.split("## Scenario config format", 1)[1].split("\n## ", 1)[0]

    def test_both_blocks_parse(self):
        blocks = re.findall(r"```\n(.*?)```", self._section(), re.S)
        assert len(blocks) == 2
        example, inline = (parse_scenario_config(b) for b in blocks)
        assert (example.name, example.policy) == ("idle-7ms", XEON)
        assert inline.policy.levels == ((2, 3 * GHZ), (4, 2_700_000_000),
                                        (8, 2_100_000_000))

    def test_every_key_is_documented(self):
        # a key shown only in a comment (bit_times_ms) counts
        section = self._section()
        missing = [key for key in harness._KEYS
                   if not re.search(rf"(?<![\w.]){re.escape(key)} = ", section)]
        assert missing == []
