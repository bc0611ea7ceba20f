import random

import pytest

from turbochannel.fec import (FecModel, PacketOutcome, attempts_needed,
                              byte_errors, comparison_rows, estimate_goodput,
                              read_outcome_trace, rs_correctable,
                              write_outcome_trace)
from turbochannel.turbo import DomainError


class TestByteErrors:
    def test_identical(self):
        assert byte_errors(b"abcdef", b"abcdef") == 0

    def test_single_corrupted_byte(self):
        assert byte_errors(b"abcdef", b"abXdef") == 1

    def test_matches_positionwise_oracle(self):
        rng = random.Random(1)
        for _ in range(500):
            n = rng.randint(1, 16)
            sent = rng.randbytes(n)
            rx = bytearray(sent)
            for i in range(n):
                if rng.random() < 0.3:
                    rx[i] ^= rng.randint(1, 255)
            oracle = sum(1 for i in range(n) if sent[i] != rx[i])
            assert byte_errors(sent, bytes(rx)) == oracle

    def test_length_mismatch(self):
        with pytest.raises(DomainError):
            byte_errors(b"ab", b"abc")


class TestFecModel:
    def test_default_corrects_two_bytes(self):
        assert FecModel().correctable_bytes == 2

    def test_parity_must_be_even(self):
        with pytest.raises(DomainError):
            FecModel(parity_bytes=3)
        with pytest.raises(DomainError):
            FecModel(parity_bytes=0)


def outcome(n_bad, n=11, lost=False, rng=None):
    rng = rng or random.Random(0)
    sent = bytes(range(n))
    if lost:
        return PacketOutcome(sent, None)
    rx = bytearray(sent)
    for pos in rng.sample(range(n), n_bad):
        rx[pos] ^= 0xFF
    return PacketOutcome(sent, bytes(rx))


class TestRsCorrectable:
    def test_two_bad_bytes_fixable(self):
        assert rs_correctable(outcome(2), FecModel()) is True

    def test_three_bad_bytes_not_fixable(self):
        assert rs_correctable(outcome(3), FecModel()) is False

    def test_clean_packet_trivially_fixable(self):
        assert rs_correctable(outcome(0), FecModel()) is True

    def test_lost_packet_never_fixable(self):
        assert rs_correctable(outcome(0, lost=True), FecModel()) is False

    def test_agrees_with_bruteforce_count(self):
        rng = random.Random(5)
        fec = FecModel()
        for _ in range(10_000):
            n_bad = rng.randint(0, 11)
            o = outcome(n_bad, rng=rng)
            assert rs_correctable(o, fec) == (o.corrupted_byte_count <= 2)


def reference_scenario():
    """40 packets: 29 clean, 7 with 1-2 corrupted bytes, 4 with more."""
    rng = random.Random(42)
    outcomes = [outcome(0, rng=rng) for _ in range(29)]
    outcomes += [outcome(rng.choice([1, 2]), rng=rng) for _ in range(7)]
    outcomes += [outcome(rng.randint(3, 11), rng=rng) for _ in range(4)]
    return outcomes


class TestEstimateGoodput:
    def test_closed_form_no_errors(self):
        outcomes = [outcome(0) for _ in range(40)]
        got = estimate_goodput(outcomes, 96, 32, 5_000, "retransmit-only")
        assert got == pytest.approx(64 * 40 / (40 * 128 * 0.005))
        assert got == pytest.approx(100.0)

    def test_reference_attempt_counts(self):
        outcomes = reference_scenario()
        assert attempts_needed(outcomes, "rs-plus-retransmit", FecModel()) == 44
        assert attempts_needed(outcomes, "retransmit-only") == 51

    def test_parity_overhead_offsets_saved_attempts(self):
        outcomes = reference_scenario()
        rs = estimate_goodput(outcomes, 96, 32, 5_000, "rs-plus-retransmit")
        plain = estimate_goodput(outcomes, 96, 32, 5_000, "retransmit-only")
        assert plain > rs

    def test_lost_packet_costs_one_retry(self):
        outcomes = [outcome(0, lost=True)]
        assert attempts_needed(outcomes, "retransmit-only") == 2
        assert attempts_needed(outcomes, "rs-plus-retransmit", FecModel()) == 2

    def test_rs_attempts_never_exceed_plain(self):
        rng = random.Random(7)
        for _ in range(100):
            outcomes = [outcome(rng.randint(0, 11),
                                lost=rng.random() < 0.1, rng=rng)
                        for _ in range(rng.randint(1, 30))]
            rs = attempts_needed(outcomes, "rs-plus-retransmit", FecModel())
            plain = attempts_needed(outcomes, "retransmit-only")
            assert rs <= plain

    def test_goodput_decreases_with_bit_time(self):
        outcomes = reference_scenario()
        rates = [estimate_goodput(outcomes, 96, 32, bt, "retransmit-only")
                 for bt in (5_000, 7_000, 10_000, 20_000)]
        assert rates == sorted(rates, reverse=True)

    def test_zero_errors_make_parity_pure_overhead(self):
        outcomes = [outcome(0) for _ in range(10)]
        rs = estimate_goodput(outcomes, 96, 32, 5_000, "rs-plus-retransmit")
        plain = estimate_goodput(outcomes, 96, 32, 5_000, "retransmit-only")
        assert rs < plain

    def test_empty_outcomes_rejected(self):
        with pytest.raises(DomainError):
            estimate_goodput([], 96, 32, 5_000, "retransmit-only")


class TestTraceFiles:
    def test_round_trip(self, tmp_path):
        outcomes = reference_scenario()[:10] + [outcome(0, lost=True)]
        path = tmp_path / "trace.txt"
        write_outcome_trace(path, outcomes)
        back = read_outcome_trace(path)
        assert back == outcomes

    @pytest.mark.parametrize("line", ["0 zz00 -", "0 00 0g"])
    def test_bad_hex_names_the_line(self, tmp_path, line):
        path = tmp_path / "trace.txt"
        path.write_text(f"# sent received\n{line}\n")
        with pytest.raises(DomainError, match=line):
            read_outcome_trace(path)

    def test_comparison_rows(self, tmp_path):
        rows = comparison_rows(reference_scenario(), 96, 32, 5_000)
        by_mode = {r["mode"]: r for r in rows}
        assert by_mode["retransmit-only"]["attempts"] == 51
        assert by_mode["rs-plus-retransmit"]["attempts"] == 44
