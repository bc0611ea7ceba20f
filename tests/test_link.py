import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import crc16_bitwise

from turbochannel.harness import Scenario, build_simulation
from turbochannel.link import (ACK_BITS, FRAME_BITS, SYNC_WORD, ArqReceiver,
                               ArqSender, CrcFailureError, FrameError,
                               LinkConfig, TransferFailed, crc16, decode_frame,
                               encode_frame, listen, next_frame, pad_payload,
                               run_transfer, scan_ack)
from turbochannel.modem import StreamAssembler, modulate
from turbochannel.turbo import DomainError, builtin_policy

XEON = builtin_policy("xeon-silver-4108")


def crc16_reference(data: bytes) -> int:
    """Independent formulation: polynomial long division over the message
    with 16 appended zero bits, the leading 16 bits xored with the init."""
    bits = [int(b) for byte in data for b in format(byte, "08b")] + [0] * 16
    for i in range(16):
        bits[i] ^= 1
    poly = 0b10001000000100001  # x^16 + x^12 + x^5 + 1
    work = int("".join(map(str, bits)), 2) if bits else 0
    width = len(bits)
    for shift in range(width - 17, -1, -1):
        if work >> (shift + 16) & 1:
            work ^= poly << shift
    return work & 0xFFFF


def _flip(bits: str, pos: int) -> str:
    return bits[:pos] + ("1" if bits[pos] == "0" else "0") + bits[pos + 1:]


class TestCrc16:
    def test_check_value(self):
        assert crc16(b"123456789") == 0x29B1

    def test_empty_input_is_init(self):
        assert crc16(b"") == 0xFFFF

    def test_agrees_with_long_division_reference(self):
        rng = random.Random(1)
        assert crc16_reference(b"123456789") == 0x29B1
        for _ in range(200):
            data = rng.randbytes(rng.randint(0, 32))
            assert crc16(data) == crc16_reference(data)

    @settings(max_examples=300, deadline=None)
    @given(data=st.binary(max_size=300))
    def test_table_agrees_with_the_bitwise_loop(self, data):
        assert crc16(data) == crc16_bitwise(data)

    def test_single_bit_flips_always_detected(self):
        rng = random.Random(2)
        for _ in range(50):
            data = bytearray(rng.randbytes(rng.randint(1, 12)))
            base = crc16(bytes(data))
            for pos in range(len(data) * 8):
                flipped = bytearray(data)
                flipped[pos // 8] ^= 0x80 >> (pos % 8)
                assert crc16(bytes(flipped)) != base

    def test_burst_errors_up_to_16_bits_detected(self):
        rng = random.Random(3)
        for _ in range(2000):
            data = rng.randbytes(9)  # seq + payload region of a frame
            bits = [int(b) for byte in data for b in format(byte, "08b")]
            word = bits + [int(b) for b in format(crc16(data), "016b")]
            length = rng.randint(1, 16)
            start = rng.randint(0, len(word) - length)
            pattern = [rng.randint(0, 1) for _ in range(length)]
            pattern[0] = pattern[-1] = 1
            for i, p in enumerate(pattern):
                word[start + i] ^= p
            body = bytes(int("".join(map(str, word[i:i + 8])), 2)
                         for i in range(0, 72, 8))
            rx_crc = int("".join(map(str, word[72:])), 2)
            assert crc16(body) != rx_crc


class TestFrameCodec:
    def test_round_trip(self):
        payload = bytes(range(8))
        bits = encode_frame(0x5A, payload)
        assert len(bits) == FRAME_BITS
        assert decode_frame(bits) == (0x5A, payload)

    def test_layout(self):
        bits = encode_frame(0, bytes(8))
        assert bits.startswith("10101100" + "00000000")
        assert bits[80:] == format(crc16(bytes(9)), "016b")

    def test_payload_length_enforced(self):
        with pytest.raises(DomainError):
            encode_frame(0, bytes(7))
        with pytest.raises(DomainError):
            encode_frame(256)

    def test_truncated(self):
        with pytest.raises(FrameError):
            decode_frame("10101100")

    def test_sync_mismatch(self):
        bits = encode_frame(1, bytes(8))
        with pytest.raises(FrameError):
            decode_frame("0" + bits[1:])

    def test_any_single_flip_in_body_fails_crc(self):
        rng = random.Random(4)
        for _ in range(100):
            bits = encode_frame(rng.randrange(256), rng.randbytes(8))
            pos = rng.randint(8, FRAME_BITS - 1)
            corrupt = bits[:pos] + ("1" if bits[pos] == "0" else "0") + bits[pos + 1:]
            with pytest.raises(CrcFailureError):
                decode_frame(corrupt)

    def test_ack_round_trip(self):
        bits = encode_frame(200)
        assert len(bits) == ACK_BITS
        assert decode_frame(bits, ACK_BITS) == (200, b"")
        assert bits == SYNC_WORD + format(200, "08b") + format(crc16(bytes([200])), "016b")

    def test_ack_flip_fails_crc(self):
        bits = encode_frame(7)
        for pos in range(8, ACK_BITS):
            with pytest.raises(CrcFailureError):
                decode_frame(_flip(bits, pos), ACK_BITS)


class TestNextFrame:
    def test_at_start(self):
        assert next_frame("10101100111", 0, 11) == 0

    def test_skips_leading_noise(self):
        assert next_frame("1110101100" + "0" * 8, 0, 16) == 2

    def test_not_found(self):
        assert next_frame("0000000000", 0, 8) is None

    def test_waits_for_the_whole_frame(self):
        bits = "1" + encode_frame(3)
        assert next_frame(bits, 0, ACK_BITS) == 1
        assert next_frame(bits[:-1], 0, ACK_BITS) is None
        assert next_frame(bits, 2, ACK_BITS) is None


class TestScanAck:
    def test_skips_corrupt_and_foreign_acks(self):
        corrupt = _flip(encode_frame(5), ACK_BITS - 1)
        bits = corrupt + "000" + encode_frame(4) + encode_frame(5) + "0000"
        times = range(1_000, 1_000 + len(bits))
        assert scan_ack(bits, times, 5) == (times[3 * ACK_BITS + 3 - 1], 1)
        assert scan_ack(bits, times, 6) == (None, 1)
        assert scan_ack(bits[:-5], times, 5) == (None, 1)


class TestLinkConfig:
    def test_default_timeout(self):
        cfg = LinkConfig(bit_time_us=7_000)
        assert cfg.timeout_us == 2 * (FRAME_BITS + ACK_BITS) * 7_000

    def test_negative_max_retries_rejected(self):
        with pytest.raises(DomainError, match="max_retries"):
            LinkConfig(bit_time_us=7_000, max_retries=-1)
        assert LinkConfig(bit_time_us=7_000, max_retries=None).max_retries is None

    def test_padding(self):
        assert pad_payload(b"abc") == b"abc" + bytes(5)
        assert pad_payload(bytes(16)) == bytes(16)


class LossyBitChannel:
    """Frame-level test double: each traversal corrupts one random bit with
    the given probability."""

    def __init__(self, p, seed):
        self.p = p
        self.rng = random.Random(seed)

    def send(self, bits: str) -> str:
        if self.rng.random() >= self.p:
            return bits
        pos = self.rng.randrange(len(bits))
        return bits[:pos] + ("1" if bits[pos] == "0" else "0") + bits[pos + 1:]


def drive_arq(payload: bytes, p_corrupt: float, seed: int,
              max_retries=None) -> tuple[ArqSender, bytes]:
    """Run the two state machines over a lossy bit pipe until done."""
    cfg = LinkConfig(bit_time_us=1_000, max_retries=max_retries)
    sender = ArqSender(payload, cfg)
    receiver = ArqReceiver()
    channel = LossyBitChannel(p_corrupt, seed)
    guard = 0
    while not sender.done:
        guard += 1
        assert guard < 100_000, "ARQ livelock"
        sender.begin_attempt()
        acks = receiver.feed(channel.send(sender.frame_bits()))
        got_ack = False
        for seq, _ in acks:
            bits = channel.send(encode_frame(seq))
            ack_time, corrupt = scan_ack(bits, range(len(bits)), sender.current_seq)
            got_ack |= ack_time is not None
            sender.stats.acks_corrupted += corrupt
        if got_ack:
            sender.ack_received()
        else:
            sender.timed_out()
    sender.finalize(1)
    return sender, bytes(receiver.data)


# a receiver's input: valid frames (in order, duplicated or out of order),
# frames with a bit flipped after the sync word, stray acks, cut-off frames
# and junk bits
_seq = st.integers(0, 3)
_payload = st.binary(min_size=8, max_size=8)
stream_piece = st.one_of(
    st.builds(encode_frame, _seq, _payload),
    st.builds(lambda q, p, i: _flip(encode_frame(q, p), i),
              _seq, _payload, st.integers(8, FRAME_BITS - 1)),
    st.builds(encode_frame, _seq),
    st.builds(lambda q, p, n: encode_frame(q, p)[:n],
              _seq, _payload, st.integers(1, FRAME_BITS - 1)),
    st.text(alphabet="01", max_size=24),
)


class TestArqStateMachines:
    def test_exactly_once_under_heavy_corruption(self):
        rng = random.Random(77)
        for trial in range(200):
            payload = pad_payload(rng.randbytes(rng.randint(8, 256)))
            sender, delivered = drive_arq(payload, 0.2, seed=trial)
            assert delivered == payload

    def test_adversarial_first_attempts(self):
        # every first transmission of each frame corrupted: one retransmission
        # per packet, none for the retries
        payload = pad_payload(bytes(range(40)))
        cfg = LinkConfig(bit_time_us=1_000)
        sender = ArqSender(payload, cfg)
        receiver = ArqReceiver()
        while not sender.done:
            sender.begin_attempt()
            bits = sender.frame_bits()
            if sender._attempt == 1:
                bits = ("1" if bits[20] == "0" else "0").join((bits[:20], bits[21:]))
            acks = receiver.feed(bits)
            if acks:
                sender.ack_received()
            else:
                sender.timed_out()
        stats = sender.finalize(1)
        assert stats.retransmissions == 5
        assert stats.packets_sent == 10

    def test_duplicate_frame_reacked_not_redelivered(self):
        receiver = ArqReceiver()
        frame = encode_frame(0, bytes(range(8)))
        first = receiver.feed(frame)
        again = receiver.feed(frame)
        assert [a[0] for a in first] == [0]
        assert [a[0] for a in again] == [0]
        assert receiver.data == bytes(range(8))

    def test_in_order_concatenation(self):
        receiver = ArqReceiver()
        chunks = [bytes([i] * 8) for i in range(3)]
        for i, c in enumerate(chunks):
            receiver.feed(encode_frame(i, c))
        assert receiver.data == b"".join(chunks)

    def test_flipped_sync_bit_means_frame_not_seen(self):
        # damage inside the sync region: the frame is invisible at that
        # offset and the search keeps going; the retransmission decodes
        receiver = ArqReceiver()
        frame = encode_frame(0, bytes(range(8)))
        broken = ("1" if frame[3] == "0" else "0").join((frame[:3], frame[4:]))
        assert receiver.feed(broken) == []
        assert receiver.data == b""
        assert [a[0] for a in receiver.feed(frame)] == [0]

    def test_spurious_sync_with_garbage_dropped(self):
        rng = random.Random(9)
        receiver = ArqReceiver()
        noise = "10101100" + "".join(rng.choice("01") for _ in range(88))
        # make sure the random tail is not accidentally a valid frame
        try:
            decode_frame(noise)
            valid = True
        except Exception:
            valid = False
        if not valid:
            assert receiver.feed(noise) == []
            assert receiver.data == b""
        # a real frame following the garbage still decodes
        acks = receiver.feed(encode_frame(0, bytes(8)))
        assert [a[0] for a in acks] == [0]

    def test_retry_budget_exhaustion(self):
        payload = pad_payload(b"x" * 8)
        with pytest.raises(TransferFailed):
            drive_arq(payload, 1.0, seed=0, max_retries=4)

    def test_sequence_wraps_mod_256(self):
        payload = pad_payload(bytes(300 * 8))
        sender, delivered = drive_arq(payload, 0.0, seed=0)
        assert delivered == payload

    @settings(max_examples=30, deadline=None)
    @given(st.binary(min_size=8, max_size=64), st.integers(0, 1000))
    def test_lossy_channel_property(self, raw, seed):
        payload = pad_payload(raw)
        sender, delivered = drive_arq(payload, 0.3, seed=seed)
        assert delivered == payload

    @settings(max_examples=200, deadline=None)
    @given(st.lists(stream_piece, max_size=12).map("".join), st.data())
    def test_split_feeds_match_one_feed(self, stream, data):
        whole = ArqReceiver()
        expected = whole.feed(stream, range(len(stream)))
        # cut anywhere, and often inside a sync word
        inside_sync = [i + k for i in range(len(stream))
                       if stream.startswith(SYNC_WORD, i) for k in range(1, 8)]
        cut = st.integers(0, len(stream))
        if inside_sync:
            cut |= st.sampled_from(inside_sync)
        cuts = sorted(data.draw(st.lists(cut, max_size=8)))
        split = ArqReceiver()
        acks = []
        for a, b in zip([0, *cuts], [*cuts, len(stream)]):
            acks += split.feed(stream[a:b], range(a, b))
        assert acks == expected
        assert split.data == whole.data
        assert split.expected_seq == whole.expected_seq


def quiet_scenario(**kw):
    kw.setdefault("name", "quiet")
    kw.setdefault("policy", XEON)
    kw.setdefault("bit_times_us", (7_000,))
    kw.setdefault("idle_noise", False)
    kw.setdefault("jitter_sigma", 0.0)
    kw.setdefault("preempt_tx_rate", 0.0)
    kw.setdefault("preempt_rx_rate", 0.0)
    kw.setdefault("payload_bytes", 80)
    return Scenario(**kw)


class TestSimulatedTransfer:
    def test_noiseless_transfer_timing(self):
        s = quiet_scenario()
        sim, link_cfg, data_cfg, ack_cfg = build_simulation(s, 7_000, 1)
        payload = pad_payload(bytes(range(80)))
        stats, data = run_transfer(sim, payload, link_cfg, data_cfg, ack_cfg)
        assert data == payload
        assert stats.packets_sent == 10
        assert stats.retransmissions == 0
        # per-packet cycle: frame + turnaround + ack + decode lag, all in bits
        cycle_bits = stats.wall_time_us / (10 * 7_000)
        assert 129 <= cycle_bits <= 136
        assert stats.effective_goodput_bps == pytest.approx(
            640e6 / stats.wall_time_us)

    def test_goodput_identity(self):
        s = quiet_scenario(payload_bytes=24)
        sim, link_cfg, data_cfg, ack_cfg = build_simulation(s, 8_000, 3)
        payload = pad_payload(bytes(24))
        stats, _ = run_transfer(sim, payload, link_cfg, data_cfg, ack_cfg)
        assert stats.effective_goodput_bps == pytest.approx(
            stats.bytes_delivered * 8 * 1e6 / stats.wall_time_us)

    def test_transfer_under_idle_noise_delivers(self):
        s = Scenario(name="idle", policy=XEON, bit_times_us=(7_000,),
                     payload_bytes=40, tx_cores=2)
        sim, link_cfg, data_cfg, ack_cfg = build_simulation(s, 7_000, 11)
        payload = pad_payload(bytes(range(40)))
        stats, data = run_transfer(sim, payload, link_cfg, data_cfg, ack_cfg)
        assert data == payload

    def test_send_and_recv_views(self):
        s = quiet_scenario(payload_bytes=16)
        payload = pad_payload(bytes(range(16)))
        sim, link_cfg, data_cfg, ack_cfg = build_simulation(s, 7_000, 2)
        stats, data = run_transfer(sim, payload, link_cfg, data_cfg, ack_cfg)
        assert stats.bytes_delivered == 16
        assert data == payload

    def test_failed_transfer_carries_partial_stats(self):
        s = quiet_scenario(payload_bytes=16, countermeasure="turbo-off",
                           max_retries=1)
        sim, link_cfg, data_cfg, ack_cfg = build_simulation(s, 7_000, 1)
        with pytest.raises(TransferFailed) as exc:
            run_transfer(sim, pad_payload(bytes(16)), link_cfg, data_cfg, ack_cfg)
        assert exc.value.stats.packets_sent == 2
        assert exc.value.stats.packets_delivered == 0
        assert exc.value.stats.wall_time_us > 0


class TestListen:
    def test_bits_closing_a_segment_are_left_out(self):
        # the listen stops 0.7 ms into the last mark; closing the segment
        # keeps that short run as a bit, which the next listen does not return
        s = quiet_scenario(bit_times_us=(2_000,))
        sim, _, cfg, _ = build_simulation(s, 2_000, 1, horizon_us=200_000)
        sim.transmit(sim.sender, modulate("1101", cfg, 2_000), 2_000)
        asm = StreamAssembler(cfg)
        assert (listen(sim, sim.receiver, cfg, asm, (0, 8_700))
                == ("0110", [1_063, 3_063, 5_063, 7_063]))
        asm.end_segment(8_700)
        bits, times = listen(sim, sim.receiver, cfg, asm, (8_700, 20_000))
        assert (bits, times[0]) == ("100000", 9_813)
        assert "".join(asm.bits) == "0110" + "1" + bits

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), bits=st.text("01", min_size=1, max_size=40),
           data=st.data())
    def test_split_on_a_window_boundary_matches_one_listen(self, seed, bits, data):
        """Listening up to a window boundary and on from it samples the same
        windows, with the same jitter, as one listen over the whole span:
        the two spans' bits and times make up the whole span's."""
        s = Scenario(name="noisy", policy=XEON, bit_times_us=(2_000,),
                     preempt_rx_rate=40.0, preempt_max_us=6_000)
        start, bit = 3_000, 2_000
        end = start + (len(bits) + 6) * bit
        runs = []
        for _ in range(2):
            sim, _, cfg, _ = build_simulation(s, bit, seed, horizon_us=end + bit)
            sim.transmit(sim.sender, modulate(bits, cfg, start), start)
            runs.append((sim, cfg, StreamAssembler(cfg)))
        (whole_sim, cfg, whole_asm), (split_sim, _, split_asm) = runs
        window = cfg.window_us
        phase = int(split_sim.receiver.grid_frac * window)
        cut = phase + window * data.draw(st.integers(1, (end - phase) // window - 1))

        whole = listen(whole_sim, whole_sim.receiver, cfg, whole_asm, (0, end))
        head = listen(split_sim, split_sim.receiver, cfg, split_asm, (0, cut))
        tail = listen(split_sim, split_sim.receiver, cfg, split_asm, (cut, end))
        assert whole == (head[0] + tail[0], head[1] + tail[1])
