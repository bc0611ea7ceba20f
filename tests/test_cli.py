from turbochannel.cli import main

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
