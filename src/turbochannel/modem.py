"""On-off-keying modem over the frequency channel.

A transmitted 1 keeps the marking cores awake (frequency drops), a 0 lets
them sleep, so on the receive side low counts mean 1 and high counts mean 0.
Demodulation is threshold classification, glitch rejection, and run-length
decoding between edges; frame alignment comes from a sync word, not from a
shared clock.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .phy import SampleSeries, TxSchedule
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


@dataclass
class BinarySampleStream:
    """Thresholded samples: True=high, False=low, None=missing."""

    values: list[bool | None]
    times_us: list[int] = field(default_factory=list)  # sample end times, optional


def modulate(bits: str, cfg: ModemConfig, tx_cores: int = 1,
             start_us: int = 0) -> TxSchedule:
    """Turn a bit string into wake/sleep marks, merging equal-bit runs."""
    if not bits or set(bits) - {"0", "1"}:
        raise DomainError("bits must be a non-empty string of 0/1")
    entries = []
    run_start = None
    for i, b in enumerate(bits):
        if b == "1" and run_start is None:
            run_start = i
        elif b == "0" and run_start is not None:
            entries.append((start_us + run_start * cfg.bit_time_us,
                            start_us + i * cfg.bit_time_us))
            run_start = None
    if run_start is not None:
        entries.append((start_us + run_start * cfg.bit_time_us,
                        start_us + len(bits) * cfg.bit_time_us))
    return TxSchedule(tuple(entries), tx_cores)


def classify(series: SampleSeries, threshold: float) -> BinarySampleStream:
    """count > threshold -> high, count <= threshold -> low (ties are low)."""
    if threshold <= 0:
        raise DomainError("threshold must be > 0")
    values: list[bool | None] = []
    for i, c in enumerate(series.counts):
        values.append(None if series.missing[i] else bool(c > threshold))
    return BinarySampleStream(values, [int(t) for t in series.end_times()])


def classify_array(series: SampleSeries, threshold: float) -> np.ndarray:
    """Array form of classify for stream feeding: 1 high, 0 low, -1 missing."""
    if threshold <= 0:
        raise DomainError("threshold must be > 0")
    arr = (series.counts > threshold).astype(np.int8)
    arr[series.missing] = -1
    return arr


def default_threshold(policy: TurboPolicy, window_us: int, idle_level: int,
                      signal_level: int, ops_per_cycle: float = 1.0) -> float:
    """Midpoint of the expected counts of two policy levels over one window.

    The level table is discrete, so the midpoint separates the idle and
    marking frequencies without any live calibration.
    """
    if idle_level == signal_level:
        raise DomainError("idle and signal levels must differ")
    for lvl in (idle_level, signal_level):
        if not 0 <= lvl < len(policy.levels):
            raise DomainError(f"level index {lvl} out of range")
    c1 = policy.frequency_of_level(idle_level) * window_us * ops_per_cycle / 1e6
    c2 = policy.frequency_of_level(signal_level) * window_us * ops_per_cycle / 1e6
    return (c1 + c2) / 2.0


# -- run-length core ----------------------------------------------------------

def _fill_missing(values: Sequence[bool | None], lead: bool | None = None) -> list[bool]:
    """Missing samples inherit the previous value; leading missings take the
    first real value seen (or ``lead`` when continuing an earlier stream)."""
    filled: list[bool] = []
    prev = lead
    pending = 0
    for v in values:
        if v is None:
            if prev is None:
                pending += 1
            else:
                filled.append(prev)
        else:
            if prev is None and pending:
                filled.extend([v] * pending)
                pending = 0
            filled.append(v)
            prev = v
    if pending and prev is not None:
        filled.extend([prev] * pending)
    return filled


def _to_runs(values: Sequence[bool]) -> list[list]:
    runs: list[list] = []
    for v in values:
        if runs and runs[-1][0] == v:
            runs[-1][1] += 1
        else:
            runs.append([v, 1])
    return runs


def _reject_runs(runs: list[list], glitch_max: int) -> list[list]:
    """Single left-to-right pass: interior runs no longer than glitch_max are
    rewritten to their flanking value. Rewrites only extend runs, so applying
    the pass twice changes nothing."""
    if not runs:
        return []
    out = [list(runs[0])]
    for i in range(1, len(runs)):
        v, n = runs[i]
        if n <= glitch_max and i < len(runs) - 1:
            out[-1][1] += n
        elif v == out[-1][0]:
            out[-1][1] += n
        else:
            out.append([v, n])
    return out


def _round_half_up(numer: int, denom: int) -> int:
    return (2 * numer + denom) // (2 * denom)


def reject_glitches(stream: BinarySampleStream, glitch_max: int) -> BinarySampleStream:
    """Drop classified-value runs too short to be real bits.

    Missing samples first inherit the previous value, so short receive-side
    preemptions behave exactly like glitches.
    """
    if glitch_max < 1:
        raise DomainError("glitch_max must be >= 1")
    filled = _fill_missing(stream.values)
    if not filled:
        return BinarySampleStream([], list(stream.times_us))
    runs = _reject_runs(_to_runs(filled), glitch_max)
    values: list[bool | None] = []
    for v, n in runs:
        values.extend([v] * n)
    return BinarySampleStream(values, list(stream.times_us))


def demodulate(stream: BinarySampleStream, cfg: ModemConfig) -> str:
    """Run-length decode an already glitch-rejected stream.

    Low runs are 1s (cores awake pull the frequency down), high runs are 0s;
    each run yields round(run/oversampling) bits, at least one.
    """
    filled = _fill_missing(stream.values)
    if not filled:
        return ""
    bits = []
    for v, n in _to_runs(filled):
        count = max(1, _round_half_up(n, cfg.oversampling))
        bits.append(("0" if v == HIGH else "1") * count)
    return "".join(bits)


class StreamAssembler:
    """Incremental classify->reject->demodulate over sample chunks.

    Equivalent to the batch pipeline on the concatenated stream, but emits
    bits as soon as they are decidable: a run is promoted once it outgrows
    glitch_max, and a growing tail run emits its bits incrementally (needed
    so frames whose last bits are 0 decode during the following silence
    instead of at the next edge). ``bit_times`` records when each bit became
    known. Samples are ingested a run at a time, so cost scales with the
    number of edges, not samples.
    """

    def __init__(self, cfg: ModemConfig):
        self._os = cfg.oversampling
        self._gmax = cfg.glitch_max
        self.bits: list[str] = []
        self.bit_times: list[int] = []
        self._reset_runs()

    def _reset_runs(self):
        self._tail: list | None = None      # [value, length, emitted]
        self._raw: list | None = None       # [value, length], length <= glitch_max
        self._lead_missing = 0
        self._started = False

    def _emit(self, value: bool, count: int, t_us: int):
        self.bits.extend(["0" if value == HIGH else "1"] * count)
        self.bit_times.extend([t_us] * count)

    def _finalize_tail(self, t_us: int):
        if self._tail is None:
            return
        v, n, emitted = self._tail
        total = max(1, _round_half_up(n, self._os))
        if total > emitted:
            self._emit(v, total - emitted, t_us)
        self._tail = None

    def _bit_ready_at(self, j: int) -> int:
        # tail length at which bit j (0-based) of the tail run rounds in
        return (self._os * (2 * j + 1) + 1) // 2

    def _grow_tail(self, timed: int, extra: int, times: Sequence[int],
                   floor_idx: int):
        """Extend the tail by ``extra`` untimed samples (absorbed or carried
        from earlier chunks) plus ``timed`` samples arriving with ``times``.
        The timed sample that brings the tail to length L sits at index
        L - (n0 + extra) - 1; floor_idx clamps bits unlocked late by a
        promotion or an absorption."""
        v, n0, emitted = self._tail
        base = n0 + extra
        self._tail[1] = base + timed
        can = _round_half_up(self._tail[1], self._os)
        last = len(times) - 1
        for j in range(emitted, can):
            idx = self._bit_ready_at(j) - base - 1
            if idx < floor_idx:
                idx = floor_idx
            if idx > last:
                idx = last
            self._emit(v, 1, int(times[idx]))
        self._tail[2] = can

    def feed(self, values: Sequence[bool | None], end_times: Sequence[int]):
        n = len(values)
        if n == 0:
            return
        if isinstance(values, np.ndarray):
            arr = values.astype(np.int8, copy=False)
        else:
            arr = np.fromiter(((-1 if v is None else int(v)) for v in values),
                              dtype=np.int8, count=n)
        times = np.asarray(end_times, dtype=np.int64)

        start = 0
        if not self._started:
            real = np.flatnonzero(arr >= 0)
            if len(real) == 0:
                self._lead_missing += n
                return
            start = int(real[0])
            self._lead_missing += start
            if self._lead_missing:
                # leading missings inherit the first real value, stamped with
                # the time that value arrived
                v0 = bool(arr[start])
                self._feed_run(v0, self._lead_missing,
                               np.repeat(times[start], self._lead_missing))
                self._lead_missing = 0
            self._started = True

        # missing samples inherit the previous value (forward fill)
        chunk = arr[start:]
        ctimes = times[start:]
        if chunk[0] < 0:
            prev = self._raw[0] if self._raw is not None else self._tail[0]
            chunk = chunk.copy()
            chunk[0] = int(prev)
        if (chunk < 0).any():
            idx = np.arange(len(chunk))
            idx[chunk < 0] = 0
            np.maximum.accumulate(idx, out=idx)
            chunk = chunk[idx]

        edges = np.flatnonzero(chunk[1:] != chunk[:-1]) + 1
        bounds = [0, *edges.tolist(), len(chunk)]
        for a, b in zip(bounds, bounds[1:]):
            self._feed_run(bool(chunk[a]), b - a, ctimes[a:b])

    def _feed_run(self, v: bool, n: int, times: Sequence[int]):
        gmax = self._gmax
        if self._tail is None and self._raw is None:
            # stream head is a boundary run: promoted immediately
            self._tail = [v, 0, 0]
            self._grow_tail(n, 0, times, 0)
            return
        if self._raw is not None and v == self._raw[0]:
            have = self._raw[1]
            if have + n > gmax:
                # outgrew the glitch budget: a genuine run replaces the tail
                cross = gmax - have  # sample where it stopped being a glitch
                self._finalize_tail(int(times[cross]))
                self._tail = [v, 0, 0]
                self._raw = None
                self._grow_tail(n, have, times, cross)
            else:
                self._raw[1] += n
            return
        if self._raw is not None:
            # the raw run ended while short: interior glitch, absorbed; the
            # new run matches the tail value by alternation
            absorbed = self._raw[1]
            self._raw = None
            self._grow_tail(n, absorbed, times, 0)
            return
        if v == self._tail[0]:
            self._grow_tail(n, 0, times, 0)
        elif n > gmax:
            self._finalize_tail(int(times[gmax]))
            self._tail = [v, 0, 0]
            self._grow_tail(n, 0, times, gmax)
        else:
            self._raw = [v, n]

    def end_segment(self, t_us: int | None = None):
        """Close the current sample run (the process stopped listening)."""
        t = t_us if t_us is not None else (self.bit_times[-1] if self.bit_times else 0)
        if self._raw is not None:
            # the trailing run is a boundary run and is kept as-is; by
            # alternation its value differs from the tail's
            v, n = self._raw
            self._raw = None
            self._finalize_tail(t)
            self._tail = [v, n, 0]
        self._finalize_tail(t)
        self._reset_runs()
