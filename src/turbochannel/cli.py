"""Command-line experiment runner.

    turbochannel run <config>             one scenario, CSV per run + aggregates
    turbochannel noise-histogram <config> background-dip histogram CSV
    turbochannel fec-analyze <trace>      strategy comparison for a packet trace

Exit status: 0 on success, 2 on configuration errors, 1 when --strict is set
and any transfer failed.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import fec as fec_mod
from .harness import (ConfigError, Scenario, _ms_to_us, emit_csv, load_scenario,
                      noise_change_histogram, run_scenario)
from .link import ACK_BITS, FRAME_BITS
from .turbo import DomainError, NoiseProfile, builtin_policy, builtin_policy_names


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--out", type=Path, default=Path("out"),
                   help="output directory (default: ./out)")
    p.add_argument("--policy", default=None,
                   help=f"override the policy ({', '.join(builtin_policy_names())})")


def _at_least_one(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _ms(text: str) -> int:
    """Milliseconds to microseconds, converted exactly as config files are."""
    try:
        return _ms_to_us(text)
    except (ValueError, ArithmeticError):
        raise argparse.ArgumentTypeError(f"not a time in ms: {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="turbochannel",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run a scenario config")
    p.add_argument("config", type=Path)
    _add_common(p)
    p.add_argument("--seed", type=int, default=None,
                   help="run a single seed instead of the configured list")
    p.add_argument("--strict", action="store_true",
                   help="exit nonzero when any transfer fails")

    p = sub.add_parser("noise-histogram", help="background frequency-dip histogram")
    p.add_argument("config", type=Path)
    p.add_argument("--runs", type=_at_least_one, default=100)
    p.add_argument("--horizon-ms", type=int, default=1000)
    _add_common(p)

    p = sub.add_parser("fec-analyze", help="error-correction trade-off for a trace")
    p.add_argument("trace", type=Path)
    p.add_argument("--bit-time-ms", type=_ms, default="5")
    p.add_argument("--parity-bytes", type=int, default=4)
    p.add_argument("--out", type=Path, default=Path("out"))
    return parser


def _load(args) -> Scenario:
    scenario = load_scenario(args.config)
    if args.policy:
        scenario = replace(scenario, policy=builtin_policy(args.policy))
    return scenario


def _cmd_run(args) -> int:
    scenario = _load(args)
    if args.seed is not None:
        scenario = replace(scenario, seeds=(args.seed,))
    report = run_scenario(scenario)
    out = emit_csv(report, args.out / f"{scenario.name}.csv")
    print(f"wrote {out}")
    for bt in report.bit_times():
        print(f"  bit_time={bt / 1000:g}ms mean_goodput={report.mean_goodput(bt):.2f}bps "
              f"retrans/pkt={report.mean_retransmissions(bt):.3f} "
              f"success={report.success_rate(bt):.0%}")
    if scenario.record_packets > 0:
        from .harness import record_packet_outcomes
        outcomes = record_packet_outcomes(scenario, scenario.bit_times_us[0],
                                          seed=scenario.seeds[0],
                                          packet_count=scenario.record_packets)
        trace = args.out / f"{scenario.name}-packets.trace"
        fec_mod.write_outcome_trace(trace, outcomes)
        print(f"wrote {trace} ({len(outcomes)} packet outcomes, "
              f"feed it to `turbochannel fec-analyze`)")
    if args.strict and any(not r.success for r in report.rows):
        return 1
    return 0


def _cmd_noise_histogram(args) -> int:
    scenario = _load(args)
    totals: dict[int, float] = {}
    horizon_us = args.horizon_ms * 1000
    for i in range(args.runs):
        profile = NoiseProfile("idle-background", seed=i + 1,
                               event_rates=scenario.idle_event_rates)
        for ms, n in noise_change_histogram(scenario.policy, profile,
                                            horizon_us).items():
            totals[ms] = totals.get(ms, 0.0) + n
    lines = ["duration_ms,mean_events_per_run,runs"]
    for ms in sorted(totals):
        lines.append(f"{ms},{totals[ms] / args.runs:.6f},{args.runs}")
    out = args.out / f"{scenario.name}-noise-histogram.csv"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text("\n".join(lines) + "\n")
    print(f"wrote {out}")
    mean_total = sum(totals.values()) / args.runs
    print(f"  mean dips/run: {mean_total:.1f}")
    return 0


def _cmd_fec_analyze(args) -> int:
    outcomes = fec_mod.read_outcome_trace(args.trace)
    fec = fec_mod.FecModel(parity_bytes=args.parity_bytes)
    rows = fec_mod.comparison_rows(outcomes, FRAME_BITS, ACK_BITS,
                                   args.bit_time_ms, fec)
    lines = ["mode,packets,clean,rs_correctable,attempts,goodput_bps"]
    for r in rows:
        lines.append(f"{r['mode']},{r['packets']},{r['clean']},"
                     f"{r['rs_correctable']},{r['attempts']},{r['goodput_bps']:.6f}")
    out = args.out / f"{args.trace.stem}-fec.csv"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text("\n".join(lines) + "\n")
    print(f"wrote {out}")
    for r in rows:
        print(f"  {r['mode']}: attempts={r['attempts']} goodput={r['goodput_bps']:.1f}bps")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "noise-histogram":
            return _cmd_noise_histogram(args)
        if args.command == "fec-analyze":
            return _cmd_fec_analyze(args)
        raise AssertionError(args.command)
    except (ConfigError, FileNotFoundError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
