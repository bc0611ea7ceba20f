"""Acceptance suite: every shipping criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion. Budgets are asserted as part of each criterion.
"""

import contextlib
import random
import time

from oracles import BinarySampleStream, classify, demodulate, reject_glitches

from turbochannel.fec import (FecModel, PacketOutcome, attempts_needed,
                              estimate_goodput, rs_correctable)
from turbochannel.harness import (Scenario, emit_csv, noise_change_histogram,
                                  run_scenario)
from turbochannel.link import (ArqReceiver, ArqSender, LinkConfig, crc16,
                               encode_frame, pad_payload, scan_ack)
from turbochannel.modem import (HIGH, LOW, ModemConfig, StreamAssembler,
                                classify_array, default_threshold, modulate)
from turbochannel.phy import SimulatedChannel
from turbochannel.turbo import builtin_policy, turbo_frequency

XEON = builtin_policy("xeon-silver-4108")
RYZEN = builtin_policy("ryzen-2700x-like")


@contextlib.contextmanager
def criterion(num, label, budget_s):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"\n[criterion {num:02d}] FAIL  {label}")
        raise
    elapsed = time.time() - start
    print(f"\n[criterion {num:02d}] PASS  {label}  ({elapsed:.2f}s)")
    assert elapsed < budget_s, f"criterion {num} exceeded {budget_s}s budget"


def test_c01_turbo_frequency_table():
    with criterion(1, "turbo table exact for active counts 0-8", 5):
        t0 = time.perf_counter()
        got = [turbo_frequency(XEON, n) for n in range(9)]
        lookup_s = time.perf_counter() - t0
        expected_ghz = [3.0, 3.0, 3.0, 2.7, 2.7, 2.1, 2.1, 2.1, 2.1]
        assert got == [int(g * 1e9) for g in expected_ghz]
        assert lookup_s < 0.001


def test_c02_modem_round_trip():
    with criterion(2, "1000 noiseless round trips, oversampling 3/8/16", 10):
        rng = random.Random(2024)
        bit_time = {3: 6_000, 8: 4_000, 16: 3_200}
        for i in range(1000):
            bits = "".join(rng.choice("01") for _ in range(rng.randint(1, 512)))
            os_ = (3, 8, 16)[i % 3]
            bt = bit_time[os_]
            thr = default_threshold(XEON, bt // os_, 0, 1)
            cfg = ModemConfig(bt, thr, oversampling=os_)
            wire = "1" + bits + "1"  # sentinel marks pin the payload edges
            sim = SimulatedChannel(XEON, (len(wire) + 8) * bt,
                                   tx_core_count=2, seed=i, jitter_sigma=0.0)
            start = 2 * bt
            sim.transmit(sim.sender, modulate(wire, cfg, start), start)
            end = start + (len(wire) + 3) * bt
            series = sim.sample_frequency(sim.receiver, cfg.window_us, (0, end))
            asm = StreamAssembler(cfg)
            asm.feed(classify_array(series, thr), series.end_times())
            asm.end_segment(end)
            decoded = "".join(asm.bits)
            assert ("0" + wire + "0") in ("0" + decoded + "0"), (i, os_, bits)
            assert decoded == _batch_decode(classify(series, thr), cfg), (i, os_)


def _batch_decode(stream, cfg):
    """The batch demodulator from tests/oracles.py, the assembler's oracle."""
    return demodulate(reject_glitches(stream, cfg.glitch_max), cfg)


def _assemble(values, cfg, chunk=7):
    """StreamAssembler's bits for one stream fed in chunks of ``chunk``
    samples, as the receiver feeds it."""
    asm = StreamAssembler(cfg)
    for a in range(0, len(values), chunk):
        asm.feed(values[a:a + chunk], range(a + 1, min(a + chunk, len(values)) + 1))
    asm.end_segment(len(values))
    return "".join(asm.bits)


def _inject_interior_flips(values, rng, gmax, count):
    out = list(values)
    used = set()
    placed = 0
    guard = gmax + 1
    for _ in range(count * 6):
        if placed >= count:
            break
        length = rng.randint(1, gmax)
        if len(out) < length + 2 * guard + 2:
            break
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
    return out, placed


def test_c03_glitch_robustness():
    with criterion(3, "500 streams with injected flips decode unchanged", 10):
        cfg = ModemConfig(bit_time_us=8_000, threshold=1.0, oversampling=8)
        rng = random.Random(3)
        injected_total = 0
        for _ in range(500):
            bits = "".join(rng.choice("01") for _ in range(rng.randint(2, 64)))
            clean = []
            for b in bits:
                clean.extend([LOW if b == "1" else HIGH] * 8)
            base = _assemble(clean, cfg)
            assert base == _batch_decode(BinarySampleStream(clean), cfg)
            noisy, placed = _inject_interior_flips(clean, rng, cfg.glitch_max,
                                                   rng.randint(1, 20))
            injected_total += placed
            got = _assemble(noisy, cfg)
            assert got == _batch_decode(BinarySampleStream(noisy), cfg)
            assert got == base
        assert injected_total > 1000  # the campaign actually injected flips


def test_c04_crc_oracle_and_burst_detection():
    with criterion(4, "CRC check value and 10000 burst errors detected", 5):
        assert crc16(b"123456789") == 0x29B1
        rng = random.Random(4)
        for _ in range(10_000):
            body = rng.randbytes(9)  # seq + payload of one frame
            word = [int(b) for byte in body for b in format(byte, "08b")]
            word += [int(b) for b in format(crc16(body), "016b")]
            length = rng.randint(1, 16)
            start = rng.randint(0, len(word) - length)
            pattern = [rng.randint(0, 1) for _ in range(length)]
            pattern[0] = pattern[-1] = 1
            for i, p in enumerate(pattern):
                word[start + i] ^= p
            rx_body = bytes(int("".join(map(str, word[i:i + 8])), 2)
                            for i in range(0, 72, 8))
            rx_crc = int("".join(map(str, word[72:])), 2)
            assert crc16(rx_body) != rx_crc


class _LossyBitChannel:
    def __init__(self, p, seed):
        self.p = p
        self.rng = random.Random(seed)

    def send(self, bits):
        if self.rng.random() >= self.p:
            return bits
        pos = self.rng.randrange(len(bits))
        return bits[:pos] + ("1" if bits[pos] == "0" else "0") + bits[pos + 1:]


def test_c05_arq_exactly_once():
    with criterion(5, "200 transfers over a 20%-corrupting channel", 30):
        rng = random.Random(5)
        cfg = LinkConfig(bit_time_us=1_000, max_retries=None)
        for trial in range(200):
            payload = pad_payload(rng.randbytes(rng.randint(8, 256)))
            sender = ArqSender(payload, cfg)
            receiver = ArqReceiver()
            channel = _LossyBitChannel(0.2, seed=trial)
            guard = 0
            while not sender.done:
                guard += 1
                assert guard < 50_000
                sender.begin_attempt()
                acks = receiver.feed(channel.send(sender.frame_bits()))
                ok = any(scan_ack(bits := channel.send(encode_frame(seq)),
                                  range(len(bits)), sender.current_seq)[0] is not None
                         for seq, _ in acks)
                if ok:
                    sender.ack_received()
                else:
                    sender.timed_out()
            assert bytes(receiver.data) == payload


def _reference_outcomes():
    rng = random.Random(42)

    def outcome(n_bad):
        sent = bytes(range(11))
        rx = bytearray(sent)
        for pos in rng.sample(range(11), n_bad):
            rx[pos] ^= 0xFF
        return PacketOutcome(sent, bytes(rx))

    out = [outcome(0) for _ in range(29)]
    out += [outcome(rng.choice([1, 2])) for _ in range(7)]
    out += [outcome(rng.randint(3, 11)) for _ in range(4)]
    return out


def test_c06_fec_analysis_oracle():
    with criterion(6, "RS correctability oracle and attempt accounting", 5):
        rng = random.Random(6)
        fec = FecModel()
        for _ in range(10_000):
            n = rng.randint(1, 16)
            sent = rng.randbytes(n)
            rx = bytearray(sent)
            for i in range(n):
                if rng.random() < 0.25:
                    rx[i] ^= rng.randint(1, 255)
            o = PacketOutcome(sent, bytes(rx))
            brute = sum(1 for a, b in zip(sent, rx) if a != b)
            assert rs_correctable(o, fec) == (brute <= fec.correctable_bytes)
        outcomes = _reference_outcomes()
        assert attempts_needed(outcomes, "rs-plus-retransmit", fec) == 44
        assert attempts_needed(outcomes, "retransmit-only") == 51
        rs = estimate_goodput(outcomes, 96, 32, 5_000, "rs-plus-retransmit", fec)
        plain = estimate_goodput(outcomes, 96, 32, 5_000, "retransmit-only", fec)
        assert plain > rs


def test_c07_calibrated_idle_throughput():
    with criterion(7, "idle 80-byte transfer at 7 ms/bit lands in band", 30):
        s = Scenario(name="accept-idle", policy=XEON, bit_times_us=(7_000,),
                     payload_bytes=80, seeds=tuple(range(1, 11)), tx_cores=2)
        rep = run_scenario(s)
        assert all(r.success for r in rep.rows)
        assert all(r.wall_time_us <= 60_000_000 for r in rep.rows)
        mean_goodput = rep.mean_goodput(7_000)
        mean_retrans = rep.mean_retransmissions(7_000)
        print(f"  idle mean goodput {mean_goodput:.1f} bps, "
              f"retransmissions/packet {mean_retrans:.2f}")
        assert 40.0 <= mean_goodput <= 80.0
        assert mean_retrans <= 1.0


SWEEP_BIT_TIMES = tuple(range(6_000, 31_000, 2_000))


def test_c08_load_degradation_and_saturation():
    with criterion(8, "goodput non-increasing in load; saturation kills it", 300):
        seeds = tuple(range(1, 11))
        means = {}
        reports = {}
        for load in (0, 1, 2, 3):
            s = Scenario(name=f"accept-load{load}", policy=XEON,
                         bit_times_us=SWEEP_BIT_TIMES, payload_bytes=80,
                         seeds=seeds, constant_cores=load,
                         tx_cores=2 if load == 0 else None)
            rep = run_scenario(s)
            reports[load] = rep
            means[load] = [rep.mean_goodput(bt) for bt in SWEEP_BIT_TIMES]
        for i, bt in enumerate(SWEEP_BIT_TIMES):
            col = [means[load][i] for load in (0, 1, 2, 3)]
            assert all(col[j] >= col[j + 1] for j in range(3)), (bt, col)
        idle_best = max(means[0])
        loaded_best = max(means[3])
        print(f"  idle best {idle_best:.1f} bps, 3-core-load best {loaded_best:.1f} bps")
        assert loaded_best <= 0.5 * idle_best
        s4 = Scenario(name="accept-load4", policy=XEON,
                      bit_times_us=SWEEP_BIT_TIMES, payload_bytes=80,
                      seeds=seeds, constant_cores=4, max_retries=3)
        rep4 = run_scenario(s4)
        assert all(not r.success for r in rep4.rows)


def test_c09_noise_histogram_calibration():
    with criterion(9, "frequency-dip histogram matches the event table", 10):
        from turbochannel.turbo import NoiseProfile
        totals = []
        ones = []
        for seed in range(1, 101):
            profile = NoiseProfile("idle-background", seed=seed)
            hist = noise_change_histogram(XEON, [profile], 1_000_000)
            totals.append(sum(hist.values()))
            ones.append(hist.get(1, 0))
        mean_total = sum(totals) / len(totals)
        mean_ones = sum(ones) / len(ones)
        print(f"  mean dips/s {mean_total:.1f} (target 118 +-10%), "
              f"1 ms bucket {mean_ones:.1f} (target 109 +-10%)")
        assert 118 * 0.9 <= mean_total <= 118 * 1.1
        assert 109 * 0.9 <= mean_ones <= 109 * 1.1


def test_c10_slow_recovery_profile_is_barely_usable():
    with criterion(10, "slow-ramp profile best goodput at most 3 bps", 60):
        best = 0.0
        for bt in (850_000, 1_200_000, 1_600_000):
            s = Scenario(name="accept-amd", policy=RYZEN, bit_times_us=(bt,),
                         payload_bytes=16, seeds=(1, 2, 3), max_retries=3)
            rep = run_scenario(s)
            best = max(best, rep.mean_goodput(bt))
        print(f"  best mean goodput {best:.2f} bps")
        assert best <= 3.0


def test_c11_countermeasures():
    with criterion(11, "turbo-off / C-state pinning / artificial noise", 60):
        seeds = tuple(range(1, 11))
        for cm in ("turbo-off", "cstate-restricted"):
            s = Scenario(name=f"accept-{cm}", policy=XEON, bit_times_us=(7_000,),
                         payload_bytes=16, seeds=seeds, countermeasure=cm,
                         max_retries=2)
            rep = run_scenario(s)
            assert all(not r.success for r in rep.rows), cm
        s = Scenario(name="accept-noise-cm", policy=XEON, bit_times_us=(7_000,),
                     payload_bytes=16, seeds=seeds,
                     countermeasure="artificial-noise", countermeasure_cores=2,
                     tx_cores=2, max_retries=6)
        rep = run_scenario(s)
        for r in rep.rows:
            assert (not r.success) or r.goodput_bps < 5.0


def test_c12_deterministic_csv(tmp_path):
    with criterion(12, "identical config and seeds give identical CSV", 60):
        s = Scenario(name="accept-determinism", policy=XEON,
                     bit_times_us=(7_000, 9_000), payload_bytes=24,
                     seeds=(1, 2, 3))
        first = emit_csv(run_scenario(s), tmp_path / "a.csv").read_bytes()
        second = emit_csv(run_scenario(s), tmp_path / "b.csv").read_bytes()
        assert first == second
