"""On-off-keying modem over the frequency channel.

A transmitted 1 keeps the marking cores awake (frequency drops), a 0 lets
them sleep, so on the receive side low counts mean 1 and high counts mean 0.
Demodulation is threshold classification, glitch rejection, and run-length
decoding between edges; frame alignment comes from a sync word, not from a
shared clock.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .phy import SampleSeries
from .turbo import DomainError, TurboPolicy

HIGH = True   # count above threshold: few cores awake, transmitted 0
LOW = False   # count at/below threshold: marking cores awake, transmitted 1


@dataclass(frozen=True)
class ModemConfig:
    bit_time_us: int
    threshold: float
    oversampling: int = 8
    glitch_max: int | None = None   # None: 2, shrunk to fit low oversampling

    def __post_init__(self):
        if self.oversampling < 3:
            raise DomainError("oversampling must be >= 3")
        if self.glitch_max is None:
            object.__setattr__(self, "glitch_max",
                               min(2, max(1, (self.oversampling - 1) // 2)))
        if not 0 < self.glitch_max < self.oversampling / 2:
            raise DomainError("glitch_max must satisfy 0 < glitch_max < oversampling/2")
        if self.bit_time_us % self.oversampling:
            raise DomainError("bit_time_us must be a multiple of oversampling")
        if self.window_us < 1:
            raise DomainError("sampling window must be at least 1 us")

    @property
    def window_us(self) -> int:
        return self.bit_time_us // self.oversampling


def modulate(bits: str, cfg: ModemConfig, start_us: int = 0) -> tuple[tuple[int, int], ...]:
    """Turn a bit string into wake/sleep marks, (start, end) in us: one mark
    per run of 1s, so the marks are non-empty, sorted and disjoint."""
    if not bits or set(bits) - {"0", "1"}:
        raise DomainError("bits must be a non-empty string of 0/1")
    bit = cfg.bit_time_us
    return tuple([(start_us + run.start() * bit, start_us + run.end() * bit)
                  for run in re.finditer("1+", bits)])


def classify_array(series: SampleSeries, threshold: float) -> np.ndarray:
    """Classify each window for stream feeding: 1 high (count above the
    threshold), 0 low (ties are low), -1 missing."""
    if threshold <= 0:
        raise DomainError("threshold must be > 0")
    arr = (series.counts > threshold).astype(np.int8)
    arr[series.missing] = -1
    return arr


def default_threshold(policy: TurboPolicy, window_us: int, idle_level: int,
                      signal_level: int) -> float:
    """Midpoint of the expected counts of two policy levels over one window.

    The level table is discrete, so the midpoint separates the idle and
    marking frequencies without any live calibration.
    """
    if idle_level == signal_level:
        raise DomainError("idle and signal levels must differ")
    for lvl in (idle_level, signal_level):
        if not 0 <= lvl < len(policy.levels):
            raise DomainError(f"level index {lvl} out of range")
    c1 = policy.frequency_of_level(idle_level) * window_us / 1e6
    c2 = policy.frequency_of_level(signal_level) * window_us / 1e6
    return (c1 + c2) / 2.0


def _round_half_up(numer, denom: int):
    """numer/denom rounded half up, for ints or int arrays."""
    return (numer + denom // 2) // denom


# bytes.translate tables from a group's index in a chunk (mod 256) to its
# bit: groups alternate from the first group's value, and HIGH decodes to "0"
_DIGITS = {first: bytes(ord("0") + (first ^ i ^ 1) % 2 for i in range(256))
           for first in (LOW, HIGH)}


class StreamAssembler:
    """Incremental demodulator over chunks of classified samples.

    Missing samples inherit the previous value, an interior run no longer
    than glitch_max joins the run before it, and each run decodes to
    run/oversampling bits, rounded half up but at least one (low runs are
    1s). Bits are emitted as soon as they are decidable: a run is promoted
    once it outgrows glitch_max, and a growing tail run emits its bits
    incrementally (needed so frames whose last bits are 0 decode during the
    following silence instead of at the next edge). ``bit_times`` records
    when each bit became known. Each chunk is decoded in one array pass over
    its runs; the tail run and a short run carried from earlier chunks are a
    virtual prefix of the chunk.
    """

    def __init__(self, cfg: ModemConfig):
        self._os = cfg.oversampling
        self._gmax = cfg.glitch_max
        self.bits: list[str] = []
        self.bit_times: list[int] = []
        self._reset_runs()

    def _reset_runs(self):
        # the tail run with its absorbed glitches, as (value, length), has
        # emitted _round_half_up(length, os) bits; an undecided run of _raw
        # samples may follow. Before the first real value: _lead missings.
        self._tail: tuple[int, int] | None = None
        self._raw = 0
        self._lead = 0

    def feed(self, values: Sequence[bool | None], end_times: Sequence[int]):
        """Decode the next chunk: True/1 high, False/0 low, None/-1 missing,
        one sample ending at each of ``end_times``."""
        n = len(values)
        if len(end_times) != n:
            raise DomainError("values and end_times must have the same length")
        if n == 0:
            return
        if isinstance(values, np.ndarray):
            arr = values.astype(np.int8, copy=False)
        else:
            arr = np.fromiter(((-1 if v is None else int(v)) for v in values),
                              dtype=np.int8, count=n)
        times = np.asarray(end_times, dtype=np.int64)

        if self._tail is None:
            # stream head: leading missings inherit the first real value,
            # stamped with the time that value arrived (clamped to index 0)
            lead = 0 if arr[0] >= 0 else int(np.argmax(arr >= 0))
            if arr[lead] < 0:
                self._lead += n
                return
            if lead:
                arr, times = arr[lead:], times[lead:]
            value, length, raw = int(arr[0]), self._lead + lead, 0
        else:
            (value, length), raw = self._tail, self._raw
            if arr[0] < 0:
                arr = arr.copy()
                arr[0] = value ^ (raw > 0)
        if arr[arr.argmin()] < 0:  # missings inherit the previous value
            arr = arr[np.maximum.accumulate(np.where(arr < 0, 0, np.arange(len(arr))))]

        # run bounds in chunk indices, the carried runs starting before 0;
        # values alternate, so run k has value ``value ^ (k & 1)``
        change = np.empty(len(arr) + 1, dtype=bool)
        change[0] = change[-1] = True
        np.not_equal(arr[1:], arr[:-1], out=change[1:-1])
        bounds = change.nonzero()[0]
        heads = [-length - raw, -raw] if raw else [-length]
        if arr[0] == value ^ (raw > 0):
            bounds[0] = heads.pop()  # the chunk continues the last carried run
        if heads:
            bounds = np.concatenate((heads, bounds))
        lengths = bounds[1:] - bounds[:-1]
        long = lengths > self._gmax
        long[0] = True  # the tail, or the head of a stream, is never a glitch
        if long.all():  # no glitch: each run is a group of its own
            glitch, undecided, edges = None, 0, bounds
        else:
            # a run an odd number of runs after the last long run has the
            # other value: it is a glitch, absorbed into the group that long
            # run started or, as the last run, undecided. A group starts at
            # each long run whose value differs from the last one's.
            runs = np.arange(len(lengths))
            glitch = (runs - np.maximum.accumulate(runs * long)) & 1
            undecided = int(glitch[-1])
            longs = long.nonzero()[0]
            parity = longs & 1
            new = np.empty(len(longs), dtype=bool)
            new[0] = True
            np.not_equal(parity[1:], parity[:-1], out=new[1:])
            edges = bounds[np.concatenate((longs[new], (len(lengths) - undecided,)))]
        group_start, group_len = edges[:-1], edges[1:] - edges[:-1]
        groups = len(group_start)

        # bit j of a group is ready at sample start + lag + os*j, where it
        # rounds in. A finished group that rounds to nothing still yields
        # one bit, at its successor's cross sample (where that run outgrew
        # glitch_max): its start moves to that sample less lag.
        os_, lag = self._os, (self._os + 1) // 2 - 1
        total = _round_half_up(group_len, os_)
        count, start = total, group_start
        if 0 in total.tolist():
            count = np.maximum(total, 1)
            count[-1] = total[-1]
            start = np.where(total, group_start, group_start + group_len + self._gmax - lag)
        # the carried tail has emitted the bits its length rounds to
        emitted = _round_half_up(length, os_) if self._tail else 0
        if emitted:
            count[0] -= emitted
        done = np.add.accumulate(count)
        origin = start - os_ * (done - count)  # bits of earlier groups come first
        if emitted:
            origin[0] += os_ * emitted
        nbits = int(done[-1])
        if nbits:
            at = origin.repeat(count)
            at += np.arange(lag, lag + os_ * nbits, os_)
            if glitch is not None:
                # a bit ready inside an absorbed glitch is known when the next
                # run starts
                floor = np.where(glitch, bounds[1:], bounds[:-1])
                at = np.maximum(at, floor[bounds.searchsorted(at, side="right") - 1])
            if at[0] < 0:  # ready among leading missings
                np.maximum(at, 0, out=at)
            self.bit_times.extend(times[at].tolist())
            # each bit's group index, mod 256, spelled by its parity
            group_of = np.arange(groups, dtype=np.uint8).repeat(count)
            self.bits.extend(group_of.tobytes().translate(_DIGITS[value]).decode())

        self._tail = (value ^ ((groups - 1) & 1), int(group_len[-1]))
        self._raw = int(lengths[-1]) if undecided else 0

    def end_segment(self, t_us: int | None = None):
        """Close the current sample run (the process stopped listening)."""
        t = t_us if t_us is not None else (self.bit_times[-1] if self.bit_times else 0)
        if self._tail is not None:
            # a tail too short to round to a bit still yields one, and so
            # does the undecided run after it: it is a boundary run, kept
            value, length = self._tail
            ends = [value] if _round_half_up(length, self._os) == 0 else []
            if self._raw:
                ends.append(value ^ 1)
            self.bits.extend("0" if v == HIGH else "1" for v in ends)
            self.bit_times.extend([t] * len(ends))
        self._reset_runs()
