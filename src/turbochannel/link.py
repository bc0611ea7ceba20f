"""Reliable framed transfer over the modem.

Wire format (MSB first throughout):

    data frame (96 bits): sync 10101100 | seq (8) | payload (64) | CRC-16 (16)
    ack frame  (32 bits): sync 10101100 | seq (8) | CRC-16 (16)

The CRC is CRC-16/CCITT-FALSE (poly 0x1021, init 0xFFFF, unreflected, no
final xor) over the seq byte plus payload. Reliability is stop-and-wait:
one frame in flight, the receiver acks the last correctly received sequence
number, the sender retransmits on timeout or on a corrupt ack, duplicates
are re-acked but delivered once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .modem import ModemConfig, StreamAssembler, classify_array, modulate
from .phy import SimulatedChannel
from .turbo import DomainError

SYNC_WORD = "10101100"
PAYLOAD_BYTES = 8
FRAME_BITS = 96
ACK_BITS = 32

CRC_POLY = 0x1021
CRC_INIT = 0xFFFF


def crc16(data: bytes) -> int:
    """CRC-16/CCITT-FALSE; crc16(b"123456789") == 0x29B1."""
    reg = CRC_INIT
    for byte in data:
        reg ^= byte << 8
        for _ in range(8):
            if reg & 0x8000:
                reg = ((reg << 1) ^ CRC_POLY) & 0xFFFF
            else:
                reg = (reg << 1) & 0xFFFF
    return reg


def bits_of_bytes(data: bytes) -> str:
    return "".join(format(b, "08b") for b in data)


def bytes_of_bits(bits: str) -> bytes:
    if len(bits) % 8:
        raise DomainError("bit string length must be a multiple of 8")
    return bytes(int(bits[i:i + 8], 2) for i in range(0, len(bits), 8))


class FrameError(Exception):
    pass


class TruncatedFrameError(FrameError):
    pass


class SyncMismatchError(FrameError):
    pass


class CrcFailureError(FrameError):
    pass


def encode_frame(seq: int, payload: bytes) -> str:
    if not 0 <= seq <= 0xFF:
        raise DomainError("seq must fit in 8 bits")
    if len(payload) != PAYLOAD_BYTES:
        raise DomainError(f"payload must be exactly {PAYLOAD_BYTES} bytes")
    body = bytes([seq]) + payload
    return SYNC_WORD + bits_of_bytes(body) + format(crc16(body), "016b")


def decode_frame(bits: str) -> tuple[int, bytes]:
    if len(bits) < FRAME_BITS:
        raise TruncatedFrameError(f"need {FRAME_BITS} bits, got {len(bits)}")
    if bits[:8] != SYNC_WORD:
        raise SyncMismatchError("frame does not start with the sync word")
    body = bytes_of_bits(bits[8:80])
    crc = int(bits[80:96], 2)
    if crc16(body) != crc:
        raise CrcFailureError("frame checksum mismatch")
    return body[0], body[1:]


def encode_ack(seq: int) -> str:
    if not 0 <= seq <= 0xFF:
        raise DomainError("seq must fit in 8 bits")
    body = bytes([seq])
    return SYNC_WORD + bits_of_bytes(body) + format(crc16(body), "016b")


def decode_ack(bits: str) -> int:
    if len(bits) < ACK_BITS:
        raise TruncatedFrameError(f"need {ACK_BITS} bits, got {len(bits)}")
    if bits[:8] != SYNC_WORD:
        raise SyncMismatchError("ack does not start with the sync word")
    body = bytes_of_bits(bits[8:16])
    if crc16(body) != int(bits[16:32], 2):
        raise CrcFailureError("ack checksum mismatch")
    return body[0]


@dataclass(frozen=True)
class LinkConfig:
    bit_time_us: int
    ack_timeout_us: int | None = None      # from frame tx start; default 2*(96+32) bits
    max_retries: int | None = 10           # None = retry forever
    pad_byte: int = 0x00
    turnaround_bits: int = 1               # receiver decode -> ack start
    interframe_bits: int = 1               # ack received -> next frame start

    def __post_init__(self):
        if self.bit_time_us <= 0:
            raise DomainError("bit_time_us must be > 0")
        if self.timeout_us <= (FRAME_BITS + ACK_BITS) * self.bit_time_us:
            raise DomainError("ack_timeout must exceed one full frame+ack exchange")

    @property
    def timeout_us(self) -> int:
        if self.ack_timeout_us is not None:
            return self.ack_timeout_us
        return 2 * (FRAME_BITS + ACK_BITS) * self.bit_time_us


def pad_payload(payload: bytes, pad_byte: int = 0x00) -> bytes:
    rem = len(payload) % PAYLOAD_BYTES
    if rem:
        payload = payload + bytes([pad_byte]) * (PAYLOAD_BYTES - rem)
    return payload


@dataclass
class TransferStats:
    packets_sent: int = 0            # frame transmissions, retries included
    packets_delivered: int = 0
    retransmissions: int = 0
    acks_corrupted: int = 0
    bytes_delivered: int = 0
    wall_time_us: int = 0

    @property
    def effective_goodput_bps(self) -> float:
        if self.wall_time_us <= 0:
            return 0.0
        return self.bytes_delivered * 8 * 1e6 / self.wall_time_us

    @property
    def retransmissions_per_packet(self) -> float:
        if self.packets_delivered == 0:
            return float(self.retransmissions)
        return self.retransmissions / self.packets_delivered


class TransferFailed(Exception):
    def __init__(self, message: str, stats: TransferStats, data: bytes = b""):
        super().__init__(message)
        self.stats = stats
        self.data = data


class ArqReceiver:
    """Receive-side state machine over a demodulated bit stream.

    Feed it bits as they come; it sync-searches, validates checksums, drops
    corrupt frames silently, delivers in-order payloads exactly once, and
    asks for an ack after every valid frame (duplicates included, since a
    duplicate means the previous ack was lost).
    """

    def __init__(self, sync_word: str = SYNC_WORD):
        self._sync = sync_word
        self._bits = ""
        self._times: list[int] = []
        self._scan = 0
        self.expected_seq = 0
        self.data = bytearray()

    def feed(self, bits: str, times: Sequence[int] | None = None) -> list[tuple[int, int]]:
        """Returns ack requests as (seq, decided_time_us)."""
        if times is None:
            times = [0] * len(bits)
        self._bits += bits
        self._times.extend(int(t) for t in times)
        body_bits = FRAME_BITS - len(self._sync)
        acks: list[tuple[int, int]] = []
        while True:
            idx = self._bits.find(self._sync, self._scan)
            if idx < 0:
                # everything up to a possible partial sync at the end is dead
                self._scan = max(0, len(self._bits) - len(self._sync) + 1)
                self._trim(self._scan)
                break
            start = idx + len(self._sync)
            if len(self._bits) - start < body_bits:
                self._trim(idx)  # wait for the rest of the frame
                break
            frame = self._bits[idx: idx + FRAME_BITS]
            try:
                seq, payload = decode_frame(frame)
            except FrameError:
                self._scan = idx + 1
                continue
            decided = self._times[idx + FRAME_BITS - 1]
            if seq == self.expected_seq:
                self.data.extend(payload)
                self.expected_seq = (self.expected_seq + 1) % 256
            # duplicate (or stray) frames are re-acked without delivering
            acks.append((seq, decided))
            self._trim(idx + FRAME_BITS)
        return acks

    def _trim(self, upto: int):
        if upto > 0:
            self._bits = self._bits[upto:]
            del self._times[:upto]
        self._scan = 0


class AckScanner:
    """Sender-side scan of one listening window for a valid matching ack."""

    def __init__(self, expect_seq: int, sync_word: str = SYNC_WORD):
        self._sync = sync_word
        self._expect = expect_seq
        self._bits = ""
        self._times: list[int] = []
        self._scan = 0
        self.corrupt_seen = 0

    def feed(self, bits: str, times: Sequence[int] | None = None) -> int | None:
        """Returns the time the expected ack completed, or None so far."""
        if times is None:
            times = [0] * len(bits)
        self._bits += bits
        self._times.extend(int(t) for t in times)
        body_bits = ACK_BITS - len(self._sync)
        while True:
            idx = self._bits.find(self._sync, self._scan)
            if idx < 0:
                self._scan = max(0, len(self._bits) - len(self._sync) + 1)
                return None
            if len(self._bits) - idx - len(self._sync) < body_bits:
                self._scan = idx
                return None
            try:
                seq = decode_ack(self._bits[idx: idx + ACK_BITS])
            except CrcFailureError:
                self.corrupt_seen += 1
                self._scan = idx + 1
                continue
            except FrameError:
                self._scan = idx + 1
                continue
            if seq == self._expect:
                return self._times[idx + ACK_BITS - 1]
            self._scan = idx + 1


class ArqSender:
    """Send-side state machine: one frame in flight, retry on timeout."""

    def __init__(self, payload: bytes, cfg: LinkConfig):
        if len(payload) == 0 or len(payload) % PAYLOAD_BYTES:
            raise DomainError("payload must be a non-empty multiple of "
                              f"{PAYLOAD_BYTES} bytes (pad first)")
        self._cfg = cfg
        self._frames = [
            (i % 256, payload[i * PAYLOAD_BYTES:(i + 1) * PAYLOAD_BYTES])
            for i in range(len(payload) // PAYLOAD_BYTES)
        ]
        self._idx = 0
        self._attempt = 0
        self.stats = TransferStats(bytes_delivered=0)

    @property
    def done(self) -> bool:
        return self._idx >= len(self._frames)

    @property
    def current_seq(self) -> int:
        return self._frames[self._idx][0]

    def frame_bits(self) -> str:
        seq, chunk = self._frames[self._idx]
        return encode_frame(seq, chunk)

    def begin_attempt(self):
        self._attempt += 1
        self.stats.packets_sent += 1

    def ack_received(self):
        seq, chunk = self._frames[self._idx]
        self.stats.packets_delivered += 1
        self.stats.bytes_delivered += len(chunk)
        self._idx += 1
        self._attempt = 0

    def timed_out(self):
        retries = self._cfg.max_retries
        if retries is not None and self._attempt > retries:
            self.stats.retransmissions = (self.stats.packets_sent
                                          - self.stats.packets_delivered)
            raise TransferFailed(
                f"frame seq={self.current_seq} undelivered after "
                f"{self._attempt} attempts", self.stats)

    def finalize(self, wall_time_us: int) -> TransferStats:
        self.stats.retransmissions = (self.stats.packets_sent
                                      - self.stats.packets_delivered)
        self.stats.wall_time_us = wall_time_us
        return self.stats


def run_transfer(sim: SimulatedChannel, payload: bytes, link_cfg: LinkConfig,
                 data_cfg: ModemConfig, ack_cfg: ModemConfig) -> tuple[TransferStats, bytes]:
    """Co-simulate one reliable transfer end to end.

    The sender modulates each frame onto its cores, then swaps roles: it runs
    the counting loop on one core while the receive side marks the ack with
    its own core plus idle helpers. Timing (turnaround, retries, timeouts)
    plays out on the shared simulation clock; the returned wall time spans
    first frame bit to last ack received.
    """
    for cfg in (data_cfg, ack_cfg):
        if cfg.bit_time_us != link_cfg.bit_time_us:
            raise DomainError("modem bit time must match the link bit time")
    bit = link_cfg.bit_time_us
    sender = ArqSender(payload, link_cfg)
    receiver = ArqReceiver(data_cfg.sync_word)
    rx_asm = StreamAssembler(data_cfg)
    rx_fed = 0
    rx_pos = 0
    decode_slack = 4 * bit
    t = bit  # first frame starts one bit in
    t0 = t
    last_ack_us = None

    while not sender.done:
        sender.begin_attempt()
        frame_bits = sender.frame_bits()
        nominal_end = t + len(frame_bits) * bit
        deadline = t + link_cfg.timeout_us
        if deadline + link_cfg.timeout_us >= sim.horizon_us:
            raise DomainError("simulation horizon too small for this transfer")

        # sender marks the frame, then immediately starts listening
        sched = modulate(frame_bits, data_cfg, tx_cores=len(sim.sender.cores),
                         start_us=t)
        sim.transmit(sim.sender, sched, anchor_us=t)
        listen_start = min(sim.shift_for_preemption([nominal_end], "sender", t)[0],
                           deadline - 1)
        sim.commit_core(sim.sender.sampling_core, listen_start, deadline)

        # receive side listens across the frame span
        rx_chunk_end = min(max(nominal_end, listen_start) + decode_slack, deadline)
        ack_plan = None
        if rx_pos < rx_chunk_end:
            series = sim.sample_frequency(sim.receiver, data_cfg.window_us,
                                          (rx_pos, rx_chunk_end))
            rx_asm.feed(classify_array(series, data_cfg.threshold),
                        series.end_times())
            new_bits = "".join(rx_asm.bits[rx_fed:])
            new_times = rx_asm.bit_times[rx_fed:]
            rx_fed = len(rx_asm.bits)
            acks = receiver.feed(new_bits, new_times)
            if acks:
                ack_plan = acks[-1]
            rx_pos = rx_chunk_end

        if ack_plan is not None:
            seq, decided = ack_plan
            # the receive side stops sampling to transmit the ack
            sim.truncate_core_after(sim.receiver.sampling_core, decided)
            ack_start = decided + link_cfg.turnaround_bits * bit
            ack_bits = encode_ack(seq)
            nominal_ack_end = ack_start + len(ack_bits) * bit
            if nominal_ack_end < sim.horizon_us:
                ack_sched = modulate(ack_bits, ack_cfg, start_us=ack_start)
                sim.transmit_marks(sim.ack_cores, ack_sched.entries,
                                   "receiver", ack_start)
                rx_resume = sim.shift_for_preemption([nominal_ack_end],
                                                     "receiver", ack_start)[0]
            else:
                rx_resume = sim.horizon_us
            rx_asm.end_segment(decided)
            rx_fed = len(rx_asm.bits)
            rx_pos = max(rx_pos, min(rx_resume, sim.horizon_us))

        # sender listens for the ack until the timeout
        scanner = AckScanner(sender.current_seq, ack_cfg.sync_word)
        ack_time = None
        if listen_start < deadline:
            series = sim.sample_frequency(sim.sender, ack_cfg.window_us,
                                          (listen_start, deadline))
            s_asm = StreamAssembler(ack_cfg)
            s_asm.feed(classify_array(series, ack_cfg.threshold),
                       series.end_times())
            s_asm.end_segment(deadline)
            ack_time = scanner.feed("".join(s_asm.bits), s_asm.bit_times)
        sender.stats.acks_corrupted += scanner.corrupt_seen

        if ack_time is not None:
            sim.truncate_core_after(sim.sender.sampling_core, ack_time)
            sender.ack_received()
            last_ack_us = ack_time
            t = ack_time + link_cfg.interframe_bits * bit
        else:
            try:
                sender.timed_out()
            except TransferFailed as failure:
                failure.stats.wall_time_us = deadline - t0
                failure.data = bytes(receiver.data)
                raise
            t = deadline

    stats = sender.finalize((last_ack_us - t0) if last_ack_us else 0)
    return stats, bytes(receiver.data)


def send_reliable(sim: SimulatedChannel, payload: bytes, link_cfg: LinkConfig,
                  data_cfg: ModemConfig, ack_cfg: ModemConfig) -> TransferStats:
    """Transfer a padded payload; raises TransferFailed when retries run out."""
    stats, data = run_transfer(sim, payload, link_cfg, data_cfg, ack_cfg)
    if data != payload:
        raise TransferFailed("delivered payload does not match", stats, data)
    return stats

