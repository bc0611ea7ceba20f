"""Offline error-correction trade-off analysis.

Given per-packet sent/received byte records from a one-way (no-ARQ) run,
quantify byte corruption, decide which packets a Reed-Solomon code with t
correctable bytes would have repaired, and estimate goodput with plain
retransmission versus parity-plus-retransmission. No actual RS codec is
involved: correctability of an n-parity code is exactly "at most n/2
corrupted bytes and the packet arrived at all", which is what the byte
records already tell us.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from .turbo import DomainError

RS_PARITY_BITS_PER_BYTE = 8


@dataclass(frozen=True)
class FecModel:
    """Reed-Solomon style block code described only by its parity budget."""

    parity_bytes: int = 4

    def __post_init__(self):
        if self.parity_bytes < 2 or self.parity_bytes % 2:
            raise DomainError("parity_bytes must be even and >= 2")

    @property
    def correctable_bytes(self) -> int:
        return self.parity_bytes // 2

    @property
    def parity_bits(self) -> int:
        return self.parity_bytes * RS_PARITY_BITS_PER_BYTE


@dataclass(frozen=True)
class PacketOutcome:
    """One packet's sent bytes and what arrived (None = never seen)."""

    sent: bytes
    received: bytes | None

    def __post_init__(self):
        if self.received is not None and len(self.received) != len(self.sent):
            raise DomainError("sent and received lengths must match")

    @property
    def lost(self) -> bool:
        return self.received is None

    @property
    def corrupted_byte_count(self) -> int:
        if self.received is None:
            return len(self.sent)
        return byte_errors(self.sent, self.received)

    @property
    def clean(self) -> bool:
        return self.received is not None and self.corrupted_byte_count == 0


def byte_errors(sent: bytes, received: bytes) -> int:
    """Number of byte positions where the two buffers differ."""
    if len(sent) != len(received):
        raise DomainError("byte_errors requires equal lengths")
    return sum(1 for a, b in zip(sent, received) if a != b)


def rs_correctable(outcome: PacketOutcome, fec: FecModel) -> bool:
    """True when the code's correction budget covers the damage."""
    return not outcome.lost and outcome.corrupted_byte_count <= fec.correctable_bytes


def attempts_needed(outcomes: Sequence[PacketOutcome], mode: str,
                    fec: FecModel | None = None) -> int:
    """Total frame transmissions under the stated retry assumption: every
    first try is taken from the record, every retry succeeds."""
    if mode not in ("retransmit-only", "rs-plus-retransmit"):
        raise DomainError(f"unknown mode {mode!r}")
    fec = fec or FecModel()
    retries = 0
    for o in outcomes:
        if mode == "rs-plus-retransmit":
            delivered = rs_correctable(o, fec)
        else:
            delivered = o.clean
        if not delivered:
            retries += 1
    return len(outcomes) + retries


def estimate_goodput(outcomes: Sequence[PacketOutcome], frame_bits: int,
                     ack_bits: int, bit_time_us: int, mode: str,
                     fec: FecModel | None = None) -> float:
    """Estimated delivered payload rate in bits/second.

    Every attempt costs frame_bits (plus parity bits in rs mode) plus an
    ack; the payload is 64 bits per packet. Retransmissions are assumed
    error-free, so attempts = packets + first-try failures (after applying
    the correction budget in rs mode).
    """
    if not outcomes:
        raise DomainError("estimate_goodput needs at least one outcome")
    if bit_time_us <= 0:
        raise DomainError("bit_time_us must be > 0")
    fec = fec or FecModel()
    per_attempt_bits = frame_bits + ack_bits
    if mode == "rs-plus-retransmit":
        per_attempt_bits += fec.parity_bits
    attempts = attempts_needed(outcomes, mode, fec)
    payload_bits = 64 * len(outcomes)
    total_time_s = attempts * per_attempt_bits * bit_time_us / 1e6
    return payload_bits / total_time_s


# -- columnar trace files -----------------------------------------------------
#
# One packet per line:  <index> <sent-hex> <received-hex | ->
# '#' starts a comment. "-" marks a packet that never arrived.

def write_outcome_trace(path: str | Path, outcomes: Iterable[PacketOutcome]):
    lines = ["# packet outcomes: index sent_hex received_hex(- = lost)"]
    for i, o in enumerate(outcomes):
        rx = "-" if o.received is None else o.received.hex()
        lines.append(f"{i} {o.sent.hex()} {rx}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_outcome_trace(path: str | Path) -> list[PacketOutcome]:
    outcomes = []
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3:
            raise DomainError(f"malformed outcome line: {raw!r}")
        _, sent_hex, rx_hex = parts
        try:
            sent = bytes.fromhex(sent_hex)
            received = None if rx_hex == "-" else bytes.fromhex(rx_hex)
        except ValueError:
            raise DomainError(f"bad hex in outcome line: {raw!r}") from None
        outcomes.append(PacketOutcome(sent, received))
    return outcomes


def comparison_rows(outcomes: Sequence[PacketOutcome], frame_bits: int,
                    ack_bits: int, bit_time_us: int,
                    fec: FecModel | None = None) -> list[dict]:
    """Summary table comparing the two strategies on one outcome set."""
    fec = fec or FecModel()
    rows = []
    for mode in ("retransmit-only", "rs-plus-retransmit"):
        rows.append({
            "mode": mode,
            "packets": len(outcomes),
            "clean": sum(1 for o in outcomes if o.clean),
            "rs_correctable": sum(1 for o in outcomes if rs_correctable(o, fec)),
            "attempts": attempts_needed(outcomes, mode, fec),
            "goodput_bps": estimate_goodput(outcomes, frame_bits, ack_bits,
                                            bit_time_us, mode, fec),
        })
    return rows
