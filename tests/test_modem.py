import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (BinarySampleStream, classify, demodulate, int8_codes,
                     modulate_entries, reject_glitches)

from turbochannel.modem import (HIGH, LOW, ModemConfig, StreamAssembler,
                                classify_array, default_threshold, modulate)
from turbochannel.phy import SampleSeries, SimulatedChannel
from turbochannel.turbo import DomainError, builtin_policy

XEON = builtin_policy("xeon-silver-4108")

CFG8 = ModemConfig(bit_time_us=8_000, threshold=2_850_000.0, oversampling=8)


def stream_of(text):
    """'h'/'l'/'.' shorthand."""
    mapping = {"h": HIGH, "l": LOW, ".": None}
    return BinarySampleStream([mapping[c] for c in text])


def render(stream):
    return "".join("." if v is None else ("h" if v else "l") for v in stream.values)


class TestModulate:
    def test_single_one_bit(self):
        assert modulate("1", CFG8) == ((0, 8_000),)

    def test_run_merging(self):
        assert modulate("1100", CFG8) == ((0, 16_000),)

    def test_sync_word_shape(self):
        cfg = ModemConfig(bit_time_us=7_000, threshold=1.0, oversampling=7)
        assert modulate("10101100", cfg) == ((0, 7_000), (14_000, 21_000), (28_000, 42_000))

    @settings(max_examples=200, deadline=None)
    @given(bits=st.text("01", min_size=1, max_size=200),
           bit_time=st.integers(1, 10_000).map(lambda k: 3 * k),
           start=st.integers(0, 10**9))
    def test_runs_match_the_bit_by_bit_loop(self, bits, bit_time, start):
        cfg = ModemConfig(bit_time_us=bit_time, threshold=1.0, oversampling=3)
        marks = modulate(bits, cfg, start)
        assert marks == modulate_entries(bits, bit_time, start)
        # every mark is non-empty, and the marks are sorted and disjoint
        times = [t for mark in marks for t in mark]
        assert all(a < b for a, b in zip(times, times[1:]))

    def test_rejects_bad_bits(self):
        with pytest.raises(DomainError):
            modulate("", CFG8)
        with pytest.raises(DomainError):
            modulate("10x", CFG8)


class TestClassify:
    def _series(self, counts, missing=None):
        n = len(counts)
        miss = np.zeros(n, dtype=bool)
        for i in missing or []:
            miss[i] = True
        return SampleSeries(0, 1_000, np.asarray(counts, dtype=np.int64), miss)

    @staticmethod
    def _classify(series, threshold):
        """The oracle's stream, after checking classify_array agrees with it."""
        stream = classify(series, threshold)
        codes = {HIGH: 1, LOW: 0, None: -1}
        assert classify_array(series, threshold).tolist() == [codes[v] for v in stream.values]
        return stream

    def test_all_above(self):
        s = self._classify(self._series([3_000_000] * 4), 2_850_000)
        assert s.values == [HIGH] * 4

    def test_alternating(self):
        s = self._classify(self._series([3_000_000, 2_700_000] * 3), 2_850_000)
        assert s.values == [HIGH, LOW] * 3

    def test_tie_breaks_low(self):
        s = self._classify(self._series([2_850_000]), 2_850_000.0)
        assert s.values == [LOW]

    def test_missing_stays_missing(self):
        s = self._classify(self._series([3_000_000, 0, 3_000_000], missing=[1]), 1_000)
        assert s.values == [HIGH, None, HIGH]


class TestDefaultThreshold:
    def test_top_pair(self):
        assert default_threshold(XEON, 1_000, 0, 1) == 2_850_000.0

    def test_lower_pair(self):
        assert default_threshold(XEON, 1_000, 1, 2) == 2_400_000.0

    def test_same_level_rejected(self):
        with pytest.raises(DomainError):
            default_threshold(XEON, 1_000, 1, 1)


class TestRejectGlitches:
    def test_short_outlier_removed(self):
        out = reject_glitches(stream_of("hhhlhhh"), 2)
        assert render(out) == "hhhhhhh"

    def test_run_longer_than_glitch_max_kept(self):
        out = reject_glitches(stream_of("hhlllhh"), 2)
        assert render(out) == "hhlllhh"

    def test_all_high_identity(self):
        out = reject_glitches(stream_of("hhhhh"), 2)
        assert render(out) == "hhhhh"

    def test_missing_inherits_previous(self):
        out = reject_glitches(stream_of("hh..hh"), 2)
        assert render(out) == "hhhhhh"

    def test_missing_then_glitch_interact(self):
        # the missing pair becomes high, leaving a 2-sample low glitch
        out = reject_glitches(stream_of("hh..llhh"), 2)
        assert render(out) == "hhhhhhhh"

    def test_boundary_runs_untouched(self):
        out = reject_glitches(stream_of("lhhhhl"), 2)
        assert render(out) == "lhhhhl"

    def test_adjacent_glitches_with_genuine_gap(self):
        out = reject_glitches(stream_of("hhhhlhlhhhh"), 2)
        assert render(out) == "hhhhhhhhhhh"

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.sampled_from([HIGH, LOW, None]), min_size=1, max_size=64),
           st.integers(1, 3))
    def test_idempotent(self, values, gmax):
        s = BinarySampleStream(values)
        once = reject_glitches(s, gmax)
        twice = reject_glitches(once, gmax)
        assert once.values == twice.values


class TestDemodulate:
    def test_even_runs(self):
        assert demodulate(stream_of("l" * 8 + "h" * 8), CFG8) == "10"

    def test_rounding_recovers_multi_bit_runs(self):
        cfg = ModemConfig(bit_time_us=6_000, threshold=1.0, oversampling=6)
        assert demodulate(stream_of("l" * 6 + "h" * 12), cfg) == "100"

    def test_empty_stream(self):
        assert demodulate(stream_of(""), CFG8) == ""

    def test_short_run_still_one_bit(self):
        assert demodulate(stream_of("h" * 16 + "lll"), CFG8) == "001"

    def test_output_length_for_aligned_runs(self):
        rng = random.Random(11)
        for _ in range(50):
            runs = [rng.randint(1, 4) for _ in range(rng.randint(1, 10))]
            text = "".join(("l" if i % 2 else "h") * (n * 8)
                           for i, n in enumerate(runs))
            out = demodulate(stream_of(text), CFG8)
            assert len(out) == len(text) // 8


def perfect_stream(bits, oversampling):
    text = "".join(("l" if b == "1" else "h") * oversampling for b in bits)
    return stream_of(text)


class TestGlitchRobustness:
    def _inject(self, values, rng, gmax, count):
        """Flip up to ``count`` runs of length <= gmax, pairwise separated
        and clear of signal edges: a flip that hugs an edge splits off a
        sub-glitch fragment of the genuine run, which is indistinguishable
        from the edge itself moving, so only interior flips must be lossless.
        """
        out = list(values)
        used = set()
        placed = 0
        guard = gmax + 1
        for _ in range(count * 6):
            if placed >= count:
                break
            length = rng.randint(1, gmax)
            pos = rng.randint(guard, len(out) - length - guard - 1)
            lo, hi = pos - guard, pos + length + guard
            if set(range(lo, hi)) & used:
                continue
            if len({out[i] for i in range(lo, hi)}) != 1:
                continue
            for i in range(pos, pos + length):
                out[i] = not out[i]
            used |= set(range(lo, hi))
            placed += 1
        return out

    def test_flipped_runs_never_change_output(self):
        rng = random.Random(4)
        for _ in range(300):
            bits = "".join(rng.choice("01") for _ in range(rng.randint(2, 40)))
            clean = perfect_stream(bits, 8)
            base = demodulate(reject_glitches(clean, 2), CFG8)
            noisy = self._inject(clean.values, rng, 2, rng.randint(1, 20))
            got = demodulate(reject_glitches(BinarySampleStream(noisy), 2), CFG8)
            assert got == base


class TestRoundTrip:
    @settings(max_examples=120, deadline=None)
    @given(st.text(alphabet="01", min_size=1, max_size=96),
           st.sampled_from([3, 4, 8, 16]))
    def test_ideal_stream_round_trip(self, bits, oversampling):
        cfg = ModemConfig(bit_time_us=oversampling * 1_000, threshold=1.0,
                          oversampling=oversampling)
        stream = perfect_stream(bits, oversampling)
        assert demodulate(reject_glitches(stream, cfg.glitch_max), cfg) == bits

    def test_simulated_channel_round_trip(self):
        rng = random.Random(21)
        for trial in range(30):
            bits = "".join(rng.choice("01") for _ in range(rng.randint(1, 64)))
            os_ = rng.choice([3, 8, 16])
            bt = {3: 6_000, 8: 4_000, 16: 3_200}[os_]
            thr = default_threshold(XEON, bt // os_, 0, 1)
            cfg = ModemConfig(bt, thr, oversampling=os_)
            sim = SimulatedChannel(XEON, 5_000_000, tx_core_count=2,
                                   seed=trial, jitter_sigma=0.0)
            start = 2 * bt
            sim.transmit(sim.sender, modulate(bits, cfg, start), start)
            end = start + (len(bits) + 3) * bt
            series = sim.sample_frequency(sim.receiver, cfg.window_us, (0, end))
            decoded = demodulate(
                reject_glitches(classify(series, thr), cfg.glitch_max), cfg)
            assert bits in decoded


class SampleAtATimeAssembler:
    """Independent per-sample formulation of the stream demodulator, used as
    an oracle for the chunk-at-a-time array implementation (bits and times)."""

    def __init__(self, cfg):
        self._os = cfg.oversampling
        self._gmax = cfg.glitch_max
        self.bits = ""
        self.bit_times = []
        self._tail = None   # [value, length, emitted]
        self._raw = None
        self._lead = 0
        self._prev = None

    def _emit(self, v, count, t):
        self.bits += ("0" if v else "1") * count
        self.bit_times.extend([t] * count)

    def _finalize(self, t):
        if self._tail is None:
            return
        v, n, emitted = self._tail
        total = max(1, (2 * n + self._os) // (2 * self._os))
        if total > emitted:
            self._emit(v, total - emitted, t)
        self._tail = None

    def _pump(self, t):
        v, n, emitted = self._tail
        can = (2 * n + self._os) // (2 * self._os)
        if can > emitted:
            self._emit(v, can - emitted, t)
            self._tail[2] = can

    def feed(self, values, times):
        for v, t in zip(values, times):
            t = int(t)
            if v is None:
                if self._prev is None:
                    self._lead += 1
                    continue
                v = self._prev
            else:
                v = bool(v)
                if self._prev is None and self._lead:
                    for _ in range(self._lead):
                        self._one(v, t)
                    self._lead = 0
                self._prev = v
            self._one(v, t)

    def _one(self, v, t):
        if self._tail is None and self._raw is None:
            self._tail = [v, 1, 0]
        elif self._raw is None:
            if v == self._tail[0]:
                self._tail[1] += 1
            else:
                self._raw = [v, 1]
        elif v == self._raw[0]:
            self._raw[1] += 1
            if self._raw[1] > self._gmax:
                self._finalize(t)
                self._tail = [v, self._raw[1], 0]
                self._raw = None
        else:
            self._tail[1] += self._raw[1] + 1
            self._raw = None
        if self._tail is not None and self._raw is None:
            self._pump(t)

    def end_segment(self, t):
        if self._raw is not None:
            v, n = self._raw
            self._raw = None
            self._finalize(t)
            self._tail = [v, n, 0]
        self._finalize(t)
        self._tail = self._raw = None
        self._prev = None
        self._lead = 0


class TestStreamAssembler:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from([HIGH, LOW, None]), min_size=1, max_size=80),
           st.sampled_from([3, 5, 8]),
           st.integers(1, 17))
    def test_matches_per_sample_oracle(self, values, oversampling, chunk):
        cfg = ModemConfig(bit_time_us=oversampling * 1_000, threshold=1.0,
                          oversampling=oversampling)
        w = cfg.window_us
        times = list(range(w, w * len(values) + w, w))
        codes = int8_codes(values)
        ref = SampleAtATimeAssembler(cfg)
        fast = StreamAssembler(cfg)
        for i in range(0, len(values), chunk):
            ref.feed(values[i:i + chunk], times[i:i + chunk])
            fast.feed(codes[i:i + chunk], w * i)
        end = times[-1] + w
        ref.end_segment(end)
        fast.end_segment(end)
        assert fast.bits == ref.bits
        assert fast.bit_times == ref.bit_times

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.sampled_from([HIGH, LOW, None]), min_size=1, max_size=96),
           st.integers(3, 10),
           st.integers(1, 24))
    def test_matches_batch_pipeline(self, values, oversampling, chunk):
        cfg = ModemConfig(bit_time_us=oversampling * 1_000, threshold=1.0,
                          oversampling=oversampling, glitch_max=1)
        batch = demodulate(
            reject_glitches(BinarySampleStream(values), cfg.glitch_max), cfg)
        asm = StreamAssembler(cfg)
        codes = int8_codes(values)
        for i in range(0, len(values), chunk):
            asm.feed(codes[i:i + chunk], cfg.window_us * i)
        asm.end_segment(cfg.window_us * len(values))
        assert asm.bits == batch

    def test_incremental_emission_of_trailing_zero_run(self):
        # a growing high run yields its 0-bits without waiting for an edge
        cfg = ModemConfig(bit_time_us=8_000, threshold=1.0, oversampling=8)
        asm = StreamAssembler(cfg)
        asm.feed(int8_codes([LOW] * 8), 0)
        asm.feed(int8_codes([HIGH] * 11), 8_000)
        assert asm.bits == "10"       # 11 samples round to one bit
        asm.feed(int8_codes([HIGH]), 19_000)
        assert asm.bits == "100"      # 12 samples round up to two
        asm.feed(int8_codes([HIGH] * 8), 20_000)
        assert asm.bits == "1000"

    def test_bit_times_monotone(self):
        cfg = ModemConfig(bit_time_us=8_000, threshold=1.0, oversampling=8)
        asm = StreamAssembler(cfg)
        rng = random.Random(3)
        values = [rng.choice([HIGH, LOW]) for _ in range(200)]
        asm.feed(int8_codes(values), 0)
        asm.end_segment(201_000)
        assert asm.bit_times == sorted(asm.bit_times)


def _feed_in_chunks(cfg, values, sizes, breaks=(), skips=(0,), start_us=0):
    """Feed int8 ``values`` (1 high, 0 low, -1 missing, as classify_array
    makes them) to StreamAssembler and to the per-sample oracle, in chunks
    whose sizes cycle through ``sizes``. Chunk k starts ``skips[k]`` windows
    after the one before it ends (the first after ``start_us``), as listens
    that leave the grid's windows unsampled; a segment ends after each chunk
    index in ``breaks`` and after the last chunk."""
    ref, fast = SampleAtATimeAssembler(cfg), StreamAssembler(cfg)
    w = cfg.window_us
    a, k, t = 0, 0, start_us
    while a < len(values):
        b = min(len(values), a + sizes[k % len(sizes)])
        t += w * int(skips[k % len(skips)])
        ref.feed([None if v < 0 else bool(v) for v in values[a:b].tolist()],
                 range(t + w, t + w * (b - a + 1), w))
        fast.feed(values[a:b], t)
        a, t = b, t + w * (b - a)
        if k in breaks:
            ref.end_segment(t + 1)
            fast.end_segment(t + 1)
        k += 1
    ref.end_segment(t + 1)
    fast.end_segment(t + 1)
    return ref, fast


@st.composite
def classified_streams(draw):
    """A ModemConfig and int8 samples that start with missings, hold many
    runs no longer than glitch_max, and come in chunks as small as one."""
    oversampling = draw(st.integers(3, 10))
    glitch_max = draw(st.integers(1, min(2, (oversampling - 1) // 2)))
    cfg = ModemConfig(bit_time_us=oversampling * 1_000, threshold=1.0,
                      oversampling=oversampling, glitch_max=glitch_max)
    lead = draw(st.integers(0, 3 * oversampling))
    runs = draw(st.lists(st.tuples(st.sampled_from([1, 0, -1]),
                                   st.integers(1, glitch_max + 1)
                                   | st.integers(1, 3 * oversampling)),
                         min_size=1, max_size=24))
    values = np.array([-1] * lead + [v for v, n in runs for _ in range(n)],
                      dtype=np.int8)
    sizes = draw(st.lists(st.just(1) | st.integers(1, 3 * oversampling),
                          min_size=1, max_size=6))
    breaks = draw(st.sets(st.integers(0, 40), max_size=3))
    # windows skipped before each chunk: at most one chunk per sample
    skips = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).integers(0, 3, len(values))
    return cfg, values, sizes, breaks, skips, draw(st.integers(0, 5_000))


class TestArrayFeeds:
    """The simulator feeds classify_array's int8 arrays, chunk by chunk."""

    @settings(max_examples=300, deadline=None)
    @given(classified_streams())
    def test_matches_per_sample_oracle(self, stream):
        ref, fast = _feed_in_chunks(*stream)
        assert fast.bits == ref.bits
        assert fast.bit_times == ref.bit_times

    # hand-checked cases, os 8 and glitch_max 2; sample i ends at 1000*(i+1)
    @pytest.mark.parametrize("text, sizes, breaks, bits, times", [
        # a 3-sample high head rounds to nothing; the low sample ending the
        # first chunk is carried, promoted in the second, and the head's
        # one bit is stamped with that run's cross sample (5) there
        ("hhhl" + "l" * 11, [4, 11], (), "011", [6_000, 7_000, 15_000]),
        # the high group's second bit rounds in at the low glitch (sample
        # 11), which is absorbed only when the next run starts (12)
        ("h" * 11 + "l" + "h" * 8, [20], (), "000", [4_000, 13_000, 20_000]),
        # ten leading missings span four chunks; bits ready among them are
        # stamped with the first real sample (10)
        ("." * 10 + "l" * 16 + "h" * 8, [3], (), "1110",
         [11_000, 12_000, 20_000, 30_000]),
        # a segment ends with an undecided high pair, which is kept as a bit
        # at the segment's end (10,001); the next feed starts a new stream
        ("l" * 8 + "hh" + "h" * 8, [10, 8], {0}, "100", [4_000, 10_001, 14_000]),
    ])
    def test_hand_checked(self, text, sizes, breaks, bits, times):
        codes = {"h": 1, "l": 0, ".": -1}
        values = np.array([codes[c] for c in text], dtype=np.int8)
        ref, fast = _feed_in_chunks(CFG8, values, sizes, breaks)
        assert (fast.bits, fast.bit_times) == (bits, times)
        assert (fast.bits, fast.bit_times) == (ref.bits, ref.bit_times)

    def test_classify_array_output_round_trips(self):
        counts = np.array([3_000_000] * 8 + [2_700_000] * 8 + [0] * 2 + [2_700_000] * 6)
        missing = np.zeros(len(counts), dtype=bool)
        missing[16:18] = True
        series = SampleSeries(0, 1_000, counts, missing)
        asm = StreamAssembler(CFG8)
        asm.feed(classify_array(series, 2_850_000), series.start_us)
        asm.end_segment(24_000)
        assert asm.bits == "011"
