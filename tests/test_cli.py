from pathlib import Path

import pytest

from turbochannel.cli import main
from turbochannel.fec import (FecModel, PacketOutcome, comparison_rows,
                              write_outcome_trace)
from turbochannel.link import ACK_BITS, FRAME_BITS

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

IDLE_CFG = """
name = cli-idle
policy = xeon-silver-4108
bit_time_ms = 7
payload_bytes = 16
seeds = 1, 2
"""


def test_run_writes_csv(tmp_path, capsys):
    cfg = tmp_path / "idle.cfg"
    cfg.write_text(IDLE_CFG)
    rc = main(["run", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 0
    out = tmp_path / "out" / "cli-idle.csv"
    assert out.exists()
    lines = out.read_text().splitlines()
    assert lines[0].startswith("scenario,bit_time_ms,seed")
    assert len(lines) == 1 + 2 + 1  # header, two seeds, one aggregate


def test_run_seed_override(tmp_path):
    cfg = tmp_path / "idle.cfg"
    cfg.write_text(IDLE_CFG)
    rc = main(["run", str(cfg), "--out", str(tmp_path / "out"), "--seed", "5"])
    assert rc == 0
    lines = (tmp_path / "out" / "cli-idle.csv").read_text().splitlines()
    assert len(lines) == 3  # header, one seed, aggregate


def test_run_strict_flags_failures(tmp_path):
    cfg = tmp_path / "dead.cfg"
    cfg.write_text(IDLE_CFG + "countermeasure = turbo-off\nmax_retries = 1\n")
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
    assert main(["run", str(cfg), "--out", str(tmp_path / "out"),
                 "--strict"]) == 1


def test_config_error_exit_code(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("policy = not-a-cpu\nbit_time_ms = 7\n")
    assert main(["run", str(cfg)]) == 2
    assert main(["run", str(tmp_path / "missing.cfg")]) == 2


def test_noise_histogram_command(tmp_path):
    cfg = tmp_path / "idle.cfg"
    cfg.write_text(IDLE_CFG)
    rc = main(["noise-histogram", str(cfg), "--runs", "5",
               "--out", str(tmp_path / "out")])
    assert rc == 0
    out = tmp_path / "out" / "cli-idle-noise-histogram.csv"
    rows = out.read_text().splitlines()
    assert rows[0] == "duration_ms,mean_events_per_run,runs"
    assert len(rows) > 1


def test_record_and_fec_analyze_pipeline(tmp_path):
    cfg = tmp_path / "rec.cfg"
    cfg.write_text(IDLE_CFG.replace("name = cli-idle", "name = rec")
                   + "record_packets = 10\nbit_time_ms = 5\n")
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    trace = out / "rec-packets.trace"
    assert trace.exists()
    rc = main(["fec-analyze", str(trace), "--bit-time-ms", "5",
               "--out", str(out)])
    assert rc == 0
    table = (out / "rec-packets-fec.csv").read_text().splitlines()
    assert table[0] == "mode,packets,clean,rs_correctable,attempts,goodput_bps"
    assert len(table) == 3


def _run_csv(tmp_path, name, text):
    cfg = tmp_path / f"{name}.cfg"
    cfg.write_text(text.replace("name = cli-idle", f"name = {name}"))
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
    lines = (tmp_path / "out" / f"{name}.csv").read_text().splitlines()[1:]
    return [line.split(",", 1)[1] for line in lines]  # without the scenario name


def test_preemption_bounds_are_read(tmp_path):
    busy = IDLE_CFG + "preempt_tx_rate = 4\npreempt_rx_rate = 4\n"
    default = _run_csv(tmp_path, "default", busy)
    # with no load the default longest suspension is 10 ms: naming it
    # changes nothing, while a shorter one changes the transfers
    assert _run_csv(tmp_path, "explicit", busy + "preempt_max_us = 10000\n") == default
    assert _run_csv(tmp_path, "short", busy + "preempt_max_us = 1000\n") != default
    cfg = tmp_path / "inverted.cfg"
    cfg.write_text(busy + "preempt_min_us = 5000\npreempt_max_us = 4000\n")
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2


def test_bit_time_converts_exactly(tmp_path):
    # float arithmetic makes 1.005 ms 1004 us, which 5x oversampling rejects
    rows = _run_csv(tmp_path, "exact", IDLE_CFG.replace("bit_time_ms = 7", "bit_time_ms = 1.005")
                    + "oversampling = 5\n")
    assert {row.split(",")[0] for row in rows} == {"1.005"}


def test_malformed_number_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(IDLE_CFG.replace("payload_bytes = 16", "payload_bytes = abc"))
    assert main(["run", str(cfg)]) == 2
    assert "payload_bytes" in capsys.readouterr().err


@pytest.mark.parametrize("line, key", [("idle_noies = off", "idle_noies"),
                                       ("policy.level = 2:3.0, 8:2.1", "policy.level"),
                                       # retired model knobs: no Scenario field
                                       ("idle_event_rates = 1:1e9", "idle_event_rates"),
                                       ("ops_per_cycle = 1.0", "ops_per_cycle"),
                                       ("preempt_base_tx = 0.1", "preempt_base_tx"),
                                       ("ack_cores = auto", "ack_cores")])
def test_unknown_key_is_a_config_error(tmp_path, capsys, line, key):
    cfg = tmp_path / "typo.cfg"
    cfg.write_text(IDLE_CFG + line + "\n")
    assert main(["run", str(cfg)]) == 2
    assert repr(key) in capsys.readouterr().err


def test_idle_noise_takes_only_on_off_values(tmp_path, capsys):
    off = _run_csv(tmp_path, "off", IDLE_CFG + "idle_noise = off\n")
    assert _run_csv(tmp_path, "no", IDLE_CFG + "idle_noise = No\n") == off
    assert _run_csv(tmp_path, "on", IDLE_CFG + "idle_noise = TRUE\n") != off
    cfg = tmp_path / "of.cfg"
    cfg.write_text(IDLE_CFG + "idle_noise = of\n")
    assert main(["run", str(cfg)]) == 2
    assert "idle_noise" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["preempt_tx_rate = inf", "preempt_rx_rate = nan",
                                  "preempt_tx_rate = -1", "preempt_rx_rate = 1e9",
                                  "preempt_per_load_core = 1e300\nconstant_cores = 2"])
def test_preemption_rate_is_bounded(tmp_path, capsys, line):
    # inf drew suspensions at time 0 without end, nan raised a traceback
    cfg = tmp_path / "rate.cfg"
    cfg.write_text(IDLE_CFG + line + "\n")
    assert main(["run", str(cfg)]) == 2
    assert "preemption rate" in capsys.readouterr().err


@pytest.mark.parametrize("config, line, key", [
    # -1 ran as 0 retries; -3 failed on a negative horizon estimate
    ("turbo-off", "max_retries = -1", "max_retries"),
    ("turbo-off", "max_retries = -3", "max_retries"),
    # a negative or nan sigma ran without jitter
    ("vm-guests", "jitter_sigma = -0.1", "jitter_sigma"),
    ("vm-guests", "jitter_sigma = nan", "jitter_sigma")])
def test_out_of_range_value_is_a_config_error(tmp_path, capsys, config, line, key):
    cfg = tmp_path / f"{config}.cfg"
    cfg.write_text((CONFIGS / f"{config}.cfg").read_text() + line + "\n")
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_repeated_key_takes_the_last_value(tmp_path):
    once = _run_csv(tmp_path, "once", IDLE_CFG.replace("seeds = 1, 2", "seeds = 3"))
    assert _run_csv(tmp_path, "twice", IDLE_CFG + "seeds = 3\n") == once


@pytest.mark.parametrize("value", ["0", "2", "3"])
def test_oversampling_is_checked_against_the_bit_times(tmp_path, capsys, value):
    # 0 used to divide by zero; 2 is too few samples per bit; 3 does not divide 7 ms
    cfg = tmp_path / "os.cfg"
    cfg.write_text(IDLE_CFG + f"oversampling = {value}\n")
    assert main(["run", str(cfg)]) == 2
    assert "oversampling" in capsys.readouterr().err


def test_noise_histogram_needs_a_run(tmp_path):
    cfg = tmp_path / "idle.cfg"
    cfg.write_text(IDLE_CFG)
    with pytest.raises(SystemExit) as exc:
        main(["noise-histogram", str(cfg), "--runs", "0"])
    assert exc.value.code == 2


def test_fec_analyze_rejects_bad_hex(tmp_path, capsys):
    trace = tmp_path / "bad.trace"
    trace.write_text("0 zz00 -\n")
    assert main(["fec-analyze", str(trace), "--out", str(tmp_path / "out")]) == 2
    assert "0 zz00 -" in capsys.readouterr().err


def test_fec_analyze_bit_time_converts_exactly(tmp_path):
    # float arithmetic made 1.005 ms 1004 us
    trace = tmp_path / "p.trace"
    sent = bytes(range(9))
    outcomes = [PacketOutcome(sent, sent), PacketOutcome(sent, None),
                PacketOutcome(sent, bytes(9))]
    write_outcome_trace(trace, outcomes)
    out = tmp_path / "out"
    assert main(["fec-analyze", str(trace), "--bit-time-ms", "1.005",
                 "--out", str(out)]) == 0
    rows = comparison_rows(outcomes, FRAME_BITS, ACK_BITS, 1005, FecModel(parity_bytes=4))
    table = (out / "p-fec.csv").read_text().splitlines()[1:]
    assert [line.rsplit(",", 1)[1] for line in table] == [
        f"{r['goodput_bps']:.6f}" for r in rows]
    with pytest.raises(SystemExit) as exc:
        main(["fec-analyze", str(trace), "--bit-time-ms", "abc"])
    assert exc.value.code == 2


def test_sweep_is_not_a_command(tmp_path):
    # ``run`` sweeps every bit time a config lists
    cfg = tmp_path / "idle.cfg"
    cfg.write_text(IDLE_CFG)
    with pytest.raises(SystemExit) as exc:
        main(["sweep", str(cfg)])
    assert exc.value.code == 2


@pytest.mark.parametrize("flag", [["--seed", "5"], ["--strict"]])
def test_noise_histogram_rejects_run_only_flags(tmp_path, flag):
    # it always uses seeds 1..runs and runs no transfer
    cfg = tmp_path / "idle.cfg"
    cfg.write_text(IDLE_CFG)
    with pytest.raises(SystemExit) as exc:
        main(["noise-histogram", str(cfg), "--runs", "1", *flag])
    assert exc.value.code == 2

