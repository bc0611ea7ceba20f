"""Reliable framed transfer over the modem.

Wire format (MSB first throughout):

    frame (96 bits): sync 10101100 | seq (8) | payload (64) | CRC-16 (16)

An ack is a frame with an empty payload (32 bits). The CRC is
CRC-16/CCITT-FALSE (poly 0x1021, init 0xFFFF, unreflected, no final xor)
over the seq byte plus payload. Reliability is stop-and-wait: one frame in
flight, the receiver acks the last correctly received sequence number, the
sender retransmits on timeout or on a corrupt ack, duplicates are re-acked
but delivered once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .modem import ModemConfig, StreamAssembler, classify_array, modulate
from .phy import ChannelEndpoint, SimulatedChannel
from .turbo import DomainError

SYNC_WORD = "10101100"
PAYLOAD_BYTES = 8
FRAME_BITS = 96
ACK_BITS = 32

CRC_POLY = 0x1021
CRC_INIT = 0xFFFF


def _shift_byte(reg: int) -> int:
    """The register after eight bit steps, with nothing fed in."""
    for _ in range(8):
        reg = ((reg << 1) ^ CRC_POLY if reg & 0x8000 else reg << 1) & 0xFFFF
    return reg


# the register a byte's eight steps leave, by the top byte xor the data byte
_CRC_TABLE = [_shift_byte(top << 8) for top in range(256)]


def crc16(data: bytes) -> int:
    """CRC-16/CCITT-FALSE; crc16(b"123456789") == 0x29B1."""
    reg = CRC_INIT
    for byte in data:
        reg = (reg << 8 & 0xFFFF) ^ _CRC_TABLE[reg >> 8 ^ byte]
    return reg


def bits_of_bytes(data: bytes) -> str:
    return "".join(format(b, "08b") for b in data)


def bytes_of_bits(bits: str) -> bytes:
    if len(bits) % 8:
        raise DomainError("bit string length must be a multiple of 8")
    return bytes(int(bits[i:i + 8], 2) for i in range(0, len(bits), 8))


class FrameError(Exception):
    pass


class CrcFailureError(FrameError):
    pass


def encode_frame(seq: int, payload: bytes = b"") -> str:
    """A data frame, or an ack when ``payload`` is empty."""
    if not 0 <= seq <= 0xFF:
        raise DomainError("seq must fit in 8 bits")
    if len(payload) not in (0, PAYLOAD_BYTES):
        raise DomainError(f"payload must be empty or {PAYLOAD_BYTES} bytes")
    body = bytes([seq]) + payload
    return SYNC_WORD + bits_of_bytes(body) + format(crc16(body), "016b")


def decode_frame(bits: str, length: int = FRAME_BITS) -> tuple[int, bytes]:
    """(seq, payload) of the ``length``-bit frame at the start of ``bits``."""
    if len(bits) < length:
        raise FrameError(f"need {length} bits, got {len(bits)}")
    if not bits.startswith(SYNC_WORD):
        raise FrameError("frame does not start with the sync word")
    body = bytes_of_bits(bits[len(SYNC_WORD):length - 16])
    if crc16(body) != int(bits[length - 16:length], 2):
        raise CrcFailureError("frame checksum mismatch")
    return body[0], body[1:]


def next_frame(bits: str, pos: int, length: int) -> int | None:
    """Start of the first sync word at or after ``pos`` that has a whole
    ``length``-bit frame in ``bits``, or None. A later sync word has even
    fewer bits after it, so None means wait for more bits."""
    idx = bits.find(SYNC_WORD, pos)
    if idx < 0 or idx + length > len(bits):
        return None
    return idx


def scan_ack(bits: str, times: Sequence[int], seq: int) -> tuple[int | None, int]:
    """(time the first valid ack for ``seq`` completed or None, number of
    acks that failed their CRC before it)."""
    corrupt = 0
    idx = -1
    while (idx := next_frame(bits, idx + 1, ACK_BITS)) is not None:
        try:
            if decode_frame(bits[idx:idx + ACK_BITS], ACK_BITS)[0] == seq:
                return times[idx + ACK_BITS - 1], corrupt
        except CrcFailureError:
            corrupt += 1
    return None, corrupt


@dataclass(frozen=True)
class LinkConfig:
    bit_time_us: int
    max_retries: int | None = 10           # None = retry forever

    def __post_init__(self):
        if self.bit_time_us <= 0:
            raise DomainError("bit_time_us must be > 0")
        if self.max_retries is not None and self.max_retries < 0:
            raise DomainError("max_retries must be >= 0 or None")

    @property
    def timeout_us(self) -> int:
        """Ack timeout, from frame tx start: two full frame+ack exchanges."""
        return 2 * (FRAME_BITS + ACK_BITS) * self.bit_time_us


def pad_payload(payload: bytes) -> bytes:
    rem = len(payload) % PAYLOAD_BYTES
    if rem:
        payload = payload + bytes(PAYLOAD_BYTES - rem)
    return payload


@dataclass
class TransferStats:
    packets_sent: int = 0            # frame transmissions, retries included
    packets_delivered: int = 0
    acks_corrupted: int = 0
    bytes_delivered: int = 0
    wall_time_us: int = 0

    @property
    def retransmissions(self) -> int:
        return self.packets_sent - self.packets_delivered

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

    def __init__(self):
        self._bits = ""
        self._times: list[int] = []
        self._scan = 0
        self.expected_seq = 0
        self.data = bytearray()

    def feed(self, bits: str, times: Sequence[int] | None = None) -> list[tuple[int, int]]:
        """Returns ack requests as (seq, decided_time_us)."""
        self._bits += bits
        self._times.extend([0] * len(bits) if times is None else times)
        acks: list[tuple[int, int]] = []
        while (idx := next_frame(self._bits, self._scan, FRAME_BITS)) is not None:
            try:
                seq, payload = decode_frame(self._bits[idx:idx + FRAME_BITS])
            except CrcFailureError:
                self._scan = idx + 1
                continue
            if seq == self.expected_seq:
                self.data.extend(payload)
                self.expected_seq = (self.expected_seq + 1) % 256
            # duplicate (or stray) frames are re-acked without delivering
            acks.append((seq, self._times[idx + FRAME_BITS - 1]))
            self._scan = idx + FRAME_BITS
        return acks


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
            raise TransferFailed(
                f"frame seq={self.current_seq} undelivered after "
                f"{self._attempt} attempts", self.stats)

    def finalize(self, wall_time_us: int) -> TransferStats:
        self.stats.wall_time_us = wall_time_us
        return self.stats


def listen(sim: SimulatedChannel, endpoint: ChannelEndpoint, cfg: ModemConfig,
           asm: StreamAssembler, span: tuple[int, int]) -> tuple[str, list[int]]:
    """Run the endpoint's counting loop over ``span``, classify each window
    and feed ``asm``. Returns the bits this span added, with the times they
    became known."""
    series = sim.sample_frequency(endpoint, cfg.window_us, span)
    fed = len(asm.bits)
    asm.feed(classify_array(series, cfg.threshold), series.end_times())
    return "".join(asm.bits[fed:]), asm.bit_times[fed:]


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
    receiver = ArqReceiver()
    rx_asm = StreamAssembler(data_cfg)
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
        sim.transmit(sim.sender.cores, modulate(frame_bits, data_cfg, t), "sender", t)
        listen_start = min(sim.shift_for_preemption([nominal_end], "sender", t)[0],
                           deadline - 1)
        sim.commit_core(sim.sender.sampling_core, listen_start, deadline)

        # receive side listens across the frame span
        rx_chunk_end = min(max(nominal_end, listen_start) + decode_slack, deadline)
        ack_plan = None
        if rx_pos < rx_chunk_end:
            acks = receiver.feed(*listen(sim, sim.receiver, data_cfg, rx_asm,
                                         (rx_pos, rx_chunk_end)))
            if acks:
                ack_plan = acks[-1]
            rx_pos = rx_chunk_end

        if ack_plan is not None:
            seq, decided = ack_plan
            # the receive side stops sampling to transmit the ack
            sim.truncate_core_after(sim.receiver.sampling_core, decided)
            ack_start = decided + bit  # one-bit turnaround to the ack
            ack_bits = encode_frame(seq)
            nominal_ack_end = ack_start + len(ack_bits) * bit
            if nominal_ack_end < sim.horizon_us:
                sim.transmit(sim.ack_cores, modulate(ack_bits, ack_cfg, ack_start),
                             "receiver", ack_start)
                rx_resume = sim.shift_for_preemption([nominal_ack_end],
                                                     "receiver", ack_start)[0]
            else:
                rx_resume = sim.horizon_us
            rx_asm.end_segment(decided)  # the bits it closes never reach the receiver
            rx_pos = max(rx_pos, min(rx_resume, sim.horizon_us))

        # sender listens for the ack until the timeout
        ack_time = None
        if listen_start < deadline:
            s_asm = StreamAssembler(ack_cfg)
            listen(sim, sim.sender, ack_cfg, s_asm, (listen_start, deadline))
            s_asm.end_segment(deadline)
            ack_time, corrupt = scan_ack("".join(s_asm.bits), s_asm.bit_times,
                                         sender.current_seq)
            sender.stats.acks_corrupted += corrupt

        if ack_time is not None:
            sim.truncate_core_after(sim.sender.sampling_core, ack_time)
            sender.ack_received()
            last_ack_us = ack_time
            t = ack_time + bit  # one-bit gap to the next frame
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

