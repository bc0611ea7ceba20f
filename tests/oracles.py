"""Plain reference implementations the tests hold the simulator against.

Nothing in the simulator calls these. They are written for reading rather
than speed: the batch demodulator decodes a whole classified stream at
once, in one pass per step, and is ``StreamAssembler``'s oracle; the
transmit-path loops step bit by bit or suspension by suspension, as
``crc16``, ``modulate`` and ``shift_for_preemption`` once did; the noise histogram walks each (profile, core) probe trace on its
own, as ``harness.noise_change_histogram`` once did; the helpers below them
read traces, sample series and CSV files back.
"""

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from turbochannel.harness import ConfigError, probe_core_count
from turbochannel.modem import HIGH, ModemConfig
from turbochannel.phy import SampleSeries
from turbochannel.turbo import (ActivityTrace, DomainError, FrequencyTrace,
                                NoiseProfile, TurboPolicy, apply_policy,
                                generate_noise)


# -- batch demodulator -----------------------------------------------------------

@dataclass
class BinarySampleStream:
    """Thresholded samples: True=high, False=low, None=missing."""

    values: list[bool | None]


def int8_codes(values: Sequence[bool | None]) -> np.ndarray:
    """Samples as ``classify_array`` codes them: 1 high, 0 low, -1 missing."""
    return np.array([-1 if v is None else int(v) for v in values], dtype=np.int8)


def classify(series: SampleSeries, threshold: float) -> BinarySampleStream:
    """count > threshold -> high, count <= threshold -> low (ties are low)."""
    if threshold <= 0:
        raise DomainError("threshold must be > 0")
    values = [None if m else c > threshold
              for c, m in zip(series.counts.tolist(), series.missing.tolist())]
    return BinarySampleStream(values)


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


def reject_glitches(stream: BinarySampleStream, glitch_max: int) -> BinarySampleStream:
    """Drop classified-value runs too short to be real bits.

    Missing samples first inherit the previous value, so short receive-side
    preemptions behave exactly like glitches.
    """
    if glitch_max < 1:
        raise DomainError("glitch_max must be >= 1")
    filled = _fill_missing(stream.values)
    if not filled:
        return BinarySampleStream([])
    runs = _reject_runs(_to_runs(filled), glitch_max)
    values: list[bool | None] = []
    for v, n in runs:
        values.extend([v] * n)
    return BinarySampleStream(values)


def demodulate(stream: BinarySampleStream, cfg: ModemConfig) -> str:
    """Run-length decode an already glitch-rejected stream.

    Low runs are 1s (cores awake pull the frequency down), high runs are 0s;
    each run yields round(run/oversampling) bits, half up, at least one.
    """
    filled = _fill_missing(stream.values)
    if not filled:
        return ""
    bits = []
    for v, n in _to_runs(filled):
        count = max(1, (n + cfg.oversampling // 2) // cfg.oversampling)
        bits.append(("0" if v == HIGH else "1") * count)
    return "".join(bits)


# -- transmit path ---------------------------------------------------------------

def crc16_bitwise(data: bytes, poly: int = 0x1021, init: int = 0xFFFF) -> int:
    """CRC-16/CCITT-FALSE, one register step per data bit."""
    reg = init
    for byte in data:
        reg ^= byte << 8
        for _ in range(8):
            if reg & 0x8000:
                reg = ((reg << 1) ^ poly) & 0xFFFF
            else:
                reg = (reg << 1) & 0xFFFF
    return reg


def modulate_entries(bits: str, bit_time_us: int, start_us: int = 0) -> tuple:
    """The [start, end) marks of each run of 1s, found bit by bit."""
    entries = []
    run_start = None
    for i, b in enumerate(bits):
        if b == "1" and run_start is None:
            run_start = i
        elif b == "0" and run_start is not None:
            entries.append((start_us + run_start * bit_time_us, start_us + i * bit_time_us))
            run_start = None
    if run_start is not None:
        entries.append((start_us + run_start * bit_time_us,
                        start_us + len(bits) * bit_time_us))
    return tuple(entries)


def shift_for_preemption(suspensions: Sequence[tuple[int, int]], times: Sequence[int],
                         anchor_us: int) -> list[int]:
    """Progress times to wall times over suspensions sorted by start. The
    scan skips, from the first on, every suspension that ends by the anchor;
    then each one that starts by a slipped time adds its part after the
    anchor to the delay (overlapping ones each add theirs)."""
    out = []
    delay = 0
    idx = 0
    while idx < len(suspensions) and suspensions[idx][1] <= anchor_us:
        idx += 1
    j = idx
    for x in times:
        while j < len(suspensions) and suspensions[j][0] <= x + delay:
            delay += suspensions[j][1] - max(suspensions[j][0], anchor_us)
            j += 1
        out.append(x + delay)
    return out


# -- noise histogram -------------------------------------------------------------

def count_frequency_changes(trace: FrequencyTrace) -> dict[int, int]:
    """Histogram of dips below the trace's top frequency, bucketed in ms."""
    top = trace.max_frequency()
    hist: dict[int, int] = {}
    dip_start = None
    for start, freq in trace.segments.tolist():
        if freq < top and dip_start is None:
            dip_start = start
        elif freq == top and dip_start is not None:
            _bucket(hist, start - dip_start)
            dip_start = None
    if dip_start is not None:
        _bucket(hist, trace.horizon_us - dip_start)
    return hist


def _bucket(hist: dict[int, int], duration_us: int):
    ms = (2 * duration_us + 1000) // 2000  # round half up to ms resolution
    hist[ms] = hist.get(ms, 0) + 1


def noise_change_histogram(policy: TurboPolicy, profile: NoiseProfile,
                           horizon_us: int) -> dict[int, int]:
    """Dip histogram of one profile: one PCU walk per noise-carrying pool
    core, over that core's noise plus the steady probe, each probe trace
    built from tuple lists and checked on the way in."""
    probe = probe_core_count(policy)
    pool = list(range(probe, policy.core_count))
    if not pool:
        raise ConfigError("policy has no spare cores for a noise histogram")
    noise = generate_noise(profile, horizon_us, policy.core_count, pool)
    hist: dict[int, int] = {}
    for core in pool:
        if noise.intervals(core):
            ivs = {c: [(0, horizon_us)] for c in range(probe)}
            ivs[core] = noise.intervals(core)
            trace = apply_policy(policy, ActivityTrace(policy.core_count, horizon_us, ivs))
            for ms, n in count_frequency_changes(trace).items():
                hist[ms] = hist.get(ms, 0) + n
    return hist


# -- readers ----------------------------------------------------------------------

def frequency_at(trace: FrequencyTrace, t_us: int) -> int:
    """The trace's frequency at one time in [0, horizon)."""
    if not 0 <= t_us < trace.horizon_us:
        raise DomainError(f"time {t_us} outside [0, {trace.horizon_us})")
    times, freqs = trace.segments.T
    # the first segment also holds before its start
    return int(freqs[np.searchsorted(times[1:], t_us, side="right")])


def samples(series: SampleSeries) -> list[tuple[int, int | None]]:
    """(window start, count) per window, with None for a missing one."""
    out = []
    for i in range(len(series.counts)):
        t = series.start_us + i * series.window_us
        out.append((t, None if series.missing[i] else int(series.counts[i])))
    return out


def parse_csv(path: str | Path) -> list[dict]:
    rows = []
    lines = Path(path).read_text().splitlines()
    header = lines[0].split(",")
    for line in lines[1:]:
        rows.append(dict(zip(header, line.split(","))))
    return rows
