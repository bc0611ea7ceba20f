"""Experiment harness: named scenarios, sweeps, countermeasures, CSV output.

A scenario composes a policy, background load, the modem and the link into
seeded end-to-end transfers. Everything is deterministic for a fixed config:
rerunning a scenario produces byte-identical CSV.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from decimal import Decimal
from pathlib import Path
from typing import Iterable, Iterator, Mapping

import numpy as np

from . import fec as fec_mod
from .link import (FRAME_BITS, PAYLOAD_BYTES, SYNC_WORD, LinkConfig,
                   TransferFailed, bytes_of_bits, encode_frame, listen,
                   next_frame, pad_payload, run_transfer)
from .modem import ModemConfig, StreamAssembler, default_threshold, modulate
from .phy import SimulatedChannel
from .turbo import (MAX_EVENT_RATE, US_PER_MS, ActivityTrace, DomainError,
                    NoiseProfile, TurboPolicy, apply_policy,
                    builtin_policy, builtin_policy_names, generate_noise,
                    turbo_frequency)

COUNTERMEASURES = ("none", "turbo-off", "cstate-restricted", "artificial-noise")

# suspensions of the covert processes when no rate is set: a floor per
# second, plus preempt_per_load_core per busy core, each lasting up to 10 ms
# plus PREEMPT_MAX_PER_LOAD_US per busy core (a loaded box preempts more)
PREEMPT_BASE_TX, PREEMPT_BASE_RX = 0.03, 0.10
PREEMPT_MAX_PER_LOAD_US = 15_000


class ConfigError(DomainError):
    pass


# -- planning ------------------------------------------------------------------

def plan_marking_cores(policy: TurboPolicy, steady_active: int,
                       available: int) -> tuple[int, bool]:
    """Cores to wake per mark so the drop is distinguishable from noise.

    ``steady_active`` is the listener's core plus any constant load. The
    preferred choice leaves one guard level between the marking frequency and
    whatever a single transient wakeup can cause, so stray background events
    stay on the far side of the threshold. Returns (cores, viable); when no
    core count moves the frequency at all the channel is saturated and the
    count is only a placeholder.
    """
    base = turbo_frequency(policy, steady_active)
    headroom = policy.core_count - steady_active
    one_more = turbo_frequency(policy, min(steady_active + 1, policy.core_count))
    limit = min(available, headroom)
    for k in range(1, limit + 1):
        if turbo_frequency(policy, steady_active + k) < one_more:
            return k, True
    for k in range(1, limit + 1):
        if turbo_frequency(policy, steady_active + k) < base:
            return k, True
    return max(1, min(2, limit if limit > 0 else 1)), False


def plan_threshold(policy: TurboPolicy, window_us: int, steady_active: int,
                   marking_cores: int) -> float:
    """Classification threshold between the steady and marking levels."""
    idle_idx = policy.level_index_for_count(steady_active)
    sig_idx = policy.level_index_for_count(
        min(steady_active + marking_cores, policy.core_count))
    if sig_idx == idle_idx:
        # saturated channel: split against the next level up (the top level
        # against the base frequency) so everything the receiver sees
        # classifies one way and the transfer fails cleanly
        if idle_idx == 0:
            freq = policy.frequency_of_level(0)
            return (freq + policy.base_frequency_hz) / 2 * window_us / 1e6
        idle_idx -= 1
    return default_threshold(policy, window_us, idle_idx, sig_idx)


# -- scenario ------------------------------------------------------------------

@dataclass(frozen=True)
class Scenario:
    name: str
    policy: TurboPolicy
    bit_times_us: tuple[int, ...]
    payload_bytes: int = 80
    seeds: tuple[int, ...] = tuple(range(1, 11))
    constant_cores: int = 0
    tx_cores: int | None = None            # None: planned from the load
    countermeasure: str = "none"
    countermeasure_cores: int = 2
    record_packets: int = 0                # also record a one-way outcome trace
    idle_noise: bool = True
    oversampling: int = 8
    glitch_max: int | None = None   # None: modem default
    max_retries: int = 10
    jitter_sigma: float = 0.005
    # suspension rates per second: explicit (VM-to-VM style runs), or None
    # for PREEMPT_BASE_* plus a per-busy-core term
    preempt_tx_rate: float | None = None
    preempt_rx_rate: float | None = None
    preempt_per_load_core: float = 0.20
    preempt_min_us: int = 1_000
    preempt_max_us: int | None = None       # None: 10 ms + 15 ms per busy core

    def __post_init__(self):
        if not self.bit_times_us:
            raise ConfigError("at least one bit time is required")
        if self.countermeasure not in COUNTERMEASURES:
            raise ConfigError(f"unknown countermeasure {self.countermeasure!r}")
        if self.payload_bytes < 1:
            raise ConfigError("payload_bytes must be >= 1")
        if not self.seeds:
            raise ConfigError("at least one seed is required")
        if self.oversampling < 3:
            raise ConfigError(f"oversampling must be >= 3, got {self.oversampling}")
        for bt in self.bit_times_us:
            if bt % self.oversampling:
                raise ConfigError(f"bit time {bt} us is not divisible by "
                                  f"oversampling {self.oversampling}")
        tx = self.planned_tx_cores()
        noise_cores = self.constant_cores
        if self.countermeasure == "artificial-noise":
            noise_cores += self.countermeasure_cores
        if tx + 1 + noise_cores > self.policy.core_count:
            raise ConfigError(
                f"core budget exceeded: tx={tx} + receiver + {noise_cores} "
                f"background cores > {self.policy.core_count}")
        lo, hi = self.preempt_duration_bounds()
        if not 0 <= lo <= hi:
            raise ConfigError(f"preemption bounds must satisfy 0 <= {lo} <= {hi}")
        # the channel's horizon is sized for every retry, so they are bounded
        if self.max_retries is None or self.max_retries < 0:
            raise ConfigError(f"max_retries must be >= 0, got {self.max_retries}")
        if not (math.isfinite(self.jitter_sigma) and self.jitter_sigma >= 0):
            raise ConfigError(f"jitter_sigma must be finite and >= 0, got {self.jitter_sigma}")
        for role, rate in zip(("tx", "rx"), self.preempt_rates()):
            if not 0 <= rate <= MAX_EVENT_RATE:
                raise ConfigError(f"{role} preemption rate must be in "
                                  f"[0, {MAX_EVENT_RATE:g}] per second, got {rate}")

    def planned_tx_cores(self) -> int:
        if self.tx_cores is not None:
            return self.tx_cores
        extra = self.countermeasure_cores if self.countermeasure == "artificial-noise" else 0
        available = self.policy.core_count - 1 - self.constant_cores - extra - 1
        k, _ = plan_marking_cores(self.policy, 1 + self.constant_cores,
                                  max(1, available))
        return k

    def planned_ack_cores(self, tx: int) -> int:
        cap = 1 + max(0, tx - 1)  # listener's own core plus idle helpers
        k, _ = plan_marking_cores(self.policy, 1 + self.constant_cores, cap)
        return min(k, cap)

    def preempt_rates(self) -> tuple[float, float]:
        scale = self.preempt_per_load_core * self.constant_cores
        tx = self.preempt_tx_rate if self.preempt_tx_rate is not None \
            else PREEMPT_BASE_TX + scale
        rx = self.preempt_rx_rate if self.preempt_rx_rate is not None \
            else PREEMPT_BASE_RX + scale
        return tx, rx

    def preempt_duration_bounds(self) -> tuple[int, int]:
        # suspensions stretch on a busier box: the preempted process waits
        # behind more runnable work before it is scheduled again
        hi = self.preempt_max_us if self.preempt_max_us is not None \
            else 10_000 + PREEMPT_MAX_PER_LOAD_US * self.constant_cores
        return self.preempt_min_us, hi


@dataclass
class RunResult:
    bit_time_us: int
    seed: int
    goodput_bps: float
    retransmissions_per_packet: float
    success: bool
    wall_time_us: int
    packets_sent: int


@dataclass
class ScenarioReport:
    scenario: str
    rows: list[RunResult] = field(default_factory=list)

    def rows_for(self, bit_time_us: int) -> list[RunResult]:
        return [r for r in self.rows if r.bit_time_us == bit_time_us]

    def bit_times(self) -> list[int]:
        seen = []
        for r in self.rows:
            if r.bit_time_us not in seen:
                seen.append(r.bit_time_us)
        return seen

    def mean_goodput(self, bit_time_us: int) -> float:
        rows = self.rows_for(bit_time_us)
        return sum(r.goodput_bps for r in rows) / len(rows)

    def mean_retransmissions(self, bit_time_us: int) -> float:
        rows = self.rows_for(bit_time_us)
        return sum(r.retransmissions_per_packet for r in rows) / len(rows)

    def success_rate(self, bit_time_us: int) -> float:
        rows = self.rows_for(bit_time_us)
        return sum(1 for r in rows if r.success) / len(rows)


def _scenario_payload(size: int, seed: int) -> bytes:
    rng = random.Random(f"payload:{seed}:{size}")
    return pad_payload(rng.randbytes(size))


def _estimate_horizon(payload_len: int, cfg: LinkConfig) -> int:
    frames = payload_len // PAYLOAD_BYTES
    return frames * (cfg.max_retries + 1) * cfg.timeout_us + 3 * cfg.timeout_us + 1_000_000


def build_simulation(s: Scenario, bit_time_us: int, seed: int,
                     horizon_us: int | None = None
                     ) -> tuple[SimulatedChannel, LinkConfig, ModemConfig, ModemConfig]:
    link_cfg = LinkConfig(bit_time_us=bit_time_us, max_retries=s.max_retries)
    if horizon_us is None:
        horizon_us = _estimate_horizon(pad_len(s.payload_bytes), link_cfg)

    tx = s.planned_tx_cores()
    ack = s.planned_ack_cores(tx)
    window = bit_time_us // s.oversampling
    steady = 1 + s.constant_cores
    data_thr = plan_threshold(s.policy, window, steady, tx)
    ack_thr = plan_threshold(s.policy, window, steady, ack)
    data_cfg = ModemConfig(bit_time_us, data_thr, s.oversampling, s.glitch_max)
    ack_cfg = ModemConfig(bit_time_us, ack_thr, s.oversampling, s.glitch_max)

    noise: list[NoiseProfile] = []
    if s.constant_cores:
        noise.append(NoiseProfile("constant-load", seed=seed,
                                  constant_cores=s.constant_cores))
    if s.idle_noise:
        noise.append(NoiseProfile("idle-background", seed=seed))
    if s.countermeasure == "artificial-noise":
        noise.append(NoiseProfile("custom", seed=seed + 7919,
                                  toggle_cores=s.countermeasure_cores))

    pinned = None
    if s.countermeasure == "turbo-off":
        pinned = s.policy.base_frequency_hz
    elif s.countermeasure == "cstate-restricted":
        pinned = s.policy.levels[-1][1]

    tx_rate, rx_rate = s.preempt_rates()
    pre_lo, pre_hi = s.preempt_duration_bounds()
    sim = SimulatedChannel(
        s.policy, horizon_us,
        tx_core_count=tx, ack_core_count=ack, noise=noise, seed=seed,
        jitter_sigma=s.jitter_sigma,
        sender_preempt_rate=tx_rate, receiver_preempt_rate=rx_rate,
        preempt_min_us=pre_lo, preempt_max_us=pre_hi,
        pinned_frequency_hz=pinned)
    return sim, link_cfg, data_cfg, ack_cfg


def pad_len(n: int) -> int:
    return len(pad_payload(bytes(n)))


def run_one(s: Scenario, bit_time_us: int, seed: int) -> RunResult:
    sim, link_cfg, data_cfg, ack_cfg = build_simulation(s, bit_time_us, seed)
    payload = _scenario_payload(s.payload_bytes, seed)
    try:
        stats, data = run_transfer(sim, payload, link_cfg, data_cfg, ack_cfg)
        success = data == payload
    except TransferFailed as tf:
        stats = tf.stats
        success = False
    return RunResult(
        bit_time_us=bit_time_us,
        seed=seed,
        goodput_bps=round(stats.effective_goodput_bps, 6),
        retransmissions_per_packet=round(stats.retransmissions_per_packet, 6),
        success=success,
        wall_time_us=stats.wall_time_us,
        packets_sent=stats.packets_sent,
    )


def run_scenario(s: Scenario) -> ScenarioReport:
    report = ScenarioReport(scenario=s.name)
    for bt in s.bit_times_us:
        for seed in s.seeds:
            report.rows.append(run_one(s, bt, seed))
    return report


# -- frequency-change accounting ------------------------------------------------

# noise rows one histogram walk takes at most, so memory does not grow with the runs
_WALK_ROWS = 1 << 11


def probe_core_count(policy: TurboPolicy) -> int:
    """Steady probe load that parks the package exactly at the top level's
    bound, so one extra active core always drops the frequency."""
    return policy.levels[0][0]


def noise_change_histogram(policy: TurboPolicy, profiles: Iterable[NoiseProfile],
                           horizon_us: int) -> dict[int, int]:
    """Frequency-dip histogram a measurement probe would record, summed over
    one expansion of each noise profile.

    Each noise-carrying core is evaluated against the steady probe
    separately: background wakeups are independent events, and counting them
    per source core keeps two cores' simultaneous wakeups from blurring into
    one long dip. A dip still open at the horizon is cut there.
    """
    probe = probe_core_count(policy)
    pool = range(probe, policy.core_count)
    if not pool:
        raise ConfigError("policy has no spare cores for a noise histogram")
    noises = (generate_noise(p, horizon_us, policy.core_count, pool) for p in profiles)
    row_sets = (rows for noise in noises for rows in map(noise.rows, pool) if len(rows))
    hist: dict[int, int] = {}
    for batch in _batches(row_sets, _WALK_ROWS):
        dips = _slot_dips(policy, batch, horizon_us)
        ms, counts = np.unique((2 * dips + 1000) // 2000, return_counts=True)  # half up
        for m, n in zip(ms.tolist(), counts.tolist()):
            hist[m] = hist.get(m, 0) + n
    return hist


def _batches(row_sets: Iterable[np.ndarray], cap: int) -> Iterator[list[np.ndarray]]:
    """Consecutive row sets, grouped up to ``cap`` rows (a larger set alone)."""
    batch, rows = [], 0
    for r in row_sets:
        if batch and rows + len(r) > cap:
            yield batch
            batch, rows = [], 0
        batch.append(r)
        rows += len(r)
    if batch:
        yield batch


def _slot_dips(policy: TurboPolicy, row_sets: list[np.ndarray],
               horizon_us: int) -> np.ndarray:
    """Durations (us) of the dips below each row set's top, from one walk: set
    i is shifted into slot i of one timeline, with the probe cores active over
    all of it. A slot lasts the horizon, the recovery delay and two periods,
    in whole periods, so each starts on a tick at the top level with no ramp
    pending, as a walk from time 0 does."""
    probe = probe_core_count(policy)
    period = policy.pcu_period_us
    slot = -(-(horizon_us + policy.recovery_delay_us + 2 * period) // period) * period
    origins = np.arange(len(row_sets)) * slot
    total = len(row_sets) * slot
    raw = [np.empty((0, 2), dtype=np.int64)] * policy.core_count
    raw[:probe] = [np.array([[0, total]], dtype=np.int64)] * probe
    raw[probe] = np.concatenate(row_sets) + np.repeat(origins, list(map(len, row_sets)))[:, None]
    trace = apply_policy(policy, ActivityTrace(policy.core_count, total, _raw=raw))
    times, freqs = trace.segments.T
    # each slot's segments from the one in effect at its start, then a last
    # entry at its horizon that ends a dip still open there
    first = times.searchsorted(origins, "right") - 1
    n = times.searchsorted(origins + horizon_us) - first + 1
    heads = np.cumsum(n) - n
    last = heads + n - 1
    idx = np.arange(n.sum()) + np.repeat(first - heads, n)
    idx[last] -= 1  # the segment in effect at the horizon, again
    starts = np.maximum(times[idx], np.repeat(origins, n))
    starts[last] = origins + horizon_us
    f = freqs[idx]
    below = f < np.repeat(np.maximum.reduceat(f, heads), n)
    below[last] = False
    # a dip runs from a step below its slot's top to the next step back up
    edges = starts[np.diff(below, prepend=False)]
    return edges[1::2] - edges[::2]


def scenario_noise_histogram(s: Scenario, seed: int,
                             horizon_us: int = 1_000_000) -> dict[int, int]:
    if not s.idle_noise or s.countermeasure in ("turbo-off", "cstate-restricted"):
        return {}
    profile = NoiseProfile("idle-background", seed=seed)
    return noise_change_histogram(s.policy, [profile], horizon_us)


# -- one-way packet recording (feeds the fec analysis) ---------------------------

def record_packet_outcomes(s: Scenario, bit_time_us: int, seed: int,
                           packet_count: int) -> list[fec_mod.PacketOutcome]:
    """Transmit packets one way with no acks and record what arrived.

    The receiver decodes best-effort at every sync it can find; received
    packet bytes are taken raw (checksum not enforced) so the analysis can
    count corrupted bytes per packet. Packets whose slot produced no sync
    are lost.
    """
    gap_bits = 4
    slot_bits = FRAME_BITS + gap_bits
    horizon = (packet_count + 2) * slot_bits * bit_time_us + 2_000_000
    sim, link_cfg, data_cfg, _ = build_simulation(s, bit_time_us, seed,
                                                  horizon_us=horizon)
    frames = []
    rng = random.Random(f"oneway:{seed}")
    t0 = bit_time_us
    for i in range(packet_count):
        payload = rng.randbytes(PAYLOAD_BYTES)
        bits = encode_frame(i % 256, payload)
        frames.append(bits)
        start = t0 + i * slot_bits * bit_time_us
        sim.transmit(sim.sender, modulate(bits, data_cfg, start), start)

    span_end = t0 + (packet_count * slot_bits + 8) * bit_time_us
    asm = StreamAssembler(data_cfg)
    listen(sim, sim.receiver, data_cfg, asm, (0, span_end))
    asm.end_segment(span_end)
    bits = "".join(asm.bits)
    times = asm.bit_times

    received: dict[int, bytes] = {}
    sync_len = len(SYNC_WORD)
    idx = next_frame(bits, 0, FRAME_BITS)
    while idx is not None:
        slot = round((times[idx] - t0) / (slot_bits * bit_time_us))
        if 0 <= slot < packet_count and slot not in received:
            received[slot] = bytes_of_bits(bits[idx + sync_len: idx + FRAME_BITS])
            idx = next_frame(bits, idx + FRAME_BITS, FRAME_BITS)
        else:
            idx = next_frame(bits, idx + 1, FRAME_BITS)

    outcomes = []
    for i, frame_bits in enumerate(frames):
        sent = bytes_of_bits(frame_bits[sync_len:])
        outcomes.append(fec_mod.PacketOutcome(sent, received.get(i)))
    return outcomes


# -- CSV --------------------------------------------------------------------------

CSV_HEADER = "scenario,bit_time_ms,seed,goodput_bps,retransmissions_per_packet,success,aggregate"


def emit_csv(report: ScenarioReport, path: str | Path) -> Path:
    """Write per-run rows plus one mean row per bit time, deterministically."""
    lines = [CSV_HEADER]
    for bt in report.bit_times():
        rows = sorted(report.rows_for(bt), key=lambda r: r.seed)
        for r in rows:
            lines.append(",".join([
                report.scenario,
                _fmt_ms(bt),
                str(r.seed),
                f"{r.goodput_bps:.6f}",
                f"{r.retransmissions_per_packet:.6f}",
                "1" if r.success else "0",
                "",
            ]))
        lines.append(",".join([
            report.scenario,
            _fmt_ms(bt),
            "",
            f"{report.mean_goodput(bt):.6f}",
            f"{report.mean_retransmissions(bt):.6f}",
            f"{report.success_rate(bt):.6f}",
            "mean",
        ]))
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text("\n".join(lines) + "\n")
    return out


def _fmt_ms(bit_time_us: int) -> str:
    return f"{bit_time_us / 1000:.3f}"


# -- scenario config files ---------------------------------------------------------
#
# Plain key = value lines; '#' comments. See configs/ for examples.

def parse_scenario_config(text: str, name_hint: str = "scenario") -> Scenario:
    kv: dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"expected key = value, got {raw!r}")
        key, val = line.split("=", 1)
        key = key.strip()
        if key not in _KEYS:
            raise ConfigError(f"unknown key {key!r}")
        kv[key] = val.strip()  # a repeated key: the last value wins

    bit_times = _field(kv, "bit_times_ms") or (_field(kv, "bit_time_ms", 7_000),)
    # keys left out keep the Scenario's own defaults
    overrides = {key: _field(kv, key) for key in _SCENARIO_KEYS if key in kv}
    return Scenario(
        name=_field(kv, "name", name_hint),
        policy=_parse_policy(kv),
        bit_times_us=bit_times,
        **overrides,
    )


def load_scenario(path: str | Path) -> Scenario:
    p = Path(path)
    return parse_scenario_config(p.read_text(), name_hint=p.stem)


def _field(kv: Mapping[str, str], key: str, default=None):
    """``kv[key]`` through the key's converter, or ``default`` when the key
    is absent. A value that does not convert is a ConfigError naming it."""
    if key not in kv:
        return default
    try:
        return _KEYS[key](kv[key])
    except (ValueError, ArithmeticError):
        raise ConfigError(f"bad value for {key}: {kv[key]!r}") from None


def _auto_int(text: str) -> int | None:
    return None if text == "auto" else int(text)


def _ms_to_us(text: str) -> int:
    # exact decimal arithmetic: 1.005 ms is 1005 us, not float's 1004.99...
    return round(Decimal(text) * US_PER_MS)


def _ms_list(text: str) -> tuple[int, ...]:
    return tuple(_ms_to_us(v) for v in text.split(","))


def _ghz_to_hz(text: str) -> int:
    return round(Decimal(text) * 1_000_000_000)


def _on_off(text: str) -> bool:
    value = text.lower()
    if value in ("on", "true", "yes", "1"):
        return True
    if value in ("off", "false", "no", "0"):
        return False
    raise ValueError(text)


def _seed_list(text: str) -> tuple[int, ...]:
    if ".." in text:
        lo, hi = text.split("..")
        return tuple(range(int(lo), int(hi) + 1))
    return tuple(int(v) for v in text.split(","))


def _levels(text: str) -> tuple[tuple[int, int], ...]:
    levels = []
    for part in text.split(","):
        bound, ghz = part.split(":")
        levels.append((int(bound), _ghz_to_hz(ghz)))
    return tuple(levels)


# config keys named after Scenario fields, with their converters
_SCENARIO_KEYS = {
    "payload_bytes": int, "seeds": _seed_list, "idle_noise": _on_off,
    "constant_cores": int,
    "tx_cores": _auto_int,
    "countermeasure": str, "countermeasure_cores": int,
    "record_packets": int, "oversampling": int, "glitch_max": int,
    "max_retries": int, "jitter_sigma": float,
    "preempt_tx_rate": float, "preempt_rx_rate": float,
    "preempt_per_load_core": float,
    "preempt_min_us": int, "preempt_max_us": int,
}

# every key a config may set; any other key is a ConfigError
_KEYS = {
    **_SCENARIO_KEYS,
    "name": str, "bit_time_ms": _ms_to_us, "bit_times_ms": _ms_list,
    "policy": str, "policy.levels": _levels, "policy.core_count": int,
    "policy.base_ghz": _ghz_to_hz, "policy.pcu_period_us": int,
    "policy.recovery_delay_us": int,
}


def _parse_policy(kv: Mapping[str, str]) -> TurboPolicy:
    levels = _field(kv, "policy.levels")
    if levels is not None:
        return TurboPolicy(
            core_count=_field(kv, "policy.core_count", levels[-1][0]),
            levels=levels,
            base_frequency_hz=_field(kv, "policy.base_ghz", 1_000_000_000),
            pcu_period_us=_field(kv, "policy.pcu_period_us", 1_000),
            recovery_delay_us=_field(kv, "policy.recovery_delay_us", 0),
        )
    name = _field(kv, "policy", "xeon-silver-4108")
    if name not in builtin_policy_names():
        raise ConfigError(f"unknown policy {name!r}")
    return builtin_policy(name)
