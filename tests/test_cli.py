"""In-process tests of the command-line interface."""

import io
import json
import math
import os
import stat
import subprocess
import sys
import threading
import time
import types
from pathlib import Path

import numpy as np
import pytest

import randev
from randev import cli
from randev.bitstream import BitSequence, read_file
from randev.cli import MonitorConfig, main
from randev.estimators import PairCounts, accumulate, analyze, deviation_plugin
from randev.model import deviation_sigma
from randev.sources import ParameterError, SourceConfig, generate


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def feed_stdin(monkeypatch, payload: bytes):
    monkeypatch.setattr(sys, "stdin",
                        types.SimpleNamespace(buffer=io.BytesIO(payload)))


class TestGenerate:
    def test_deterministic_rerun(self, capsys, tmp_path):
        a = tmp_path / "a.bits"
        b = tmp_path / "b.bits"
        for path in (a, b):
            code, out, _ = run(capsys, "generate", "--source", "markov",
                               "--bias", "0.1", "--a1", "0.1",
                               "--nbits", "40000", "--seed", "42",
                               "--out", str(path))
            assert code == 0
            assert "wrote 40000 bits" in out
        assert a.read_bytes() == b.read_bytes()

    def test_matches_library(self, capsys, tmp_path):
        path = tmp_path / "s.bits"
        code, _, _ = run(capsys, "generate", "--source", "splitter",
                         "--bias", "0.2", "--nbits", "999",
                         "--seed", "5", "--out", str(path))
        assert code == 0
        expected = generate(SourceConfig.splitter(0.2, seed=5), 999)
        assert read_file(path, nbits_override=999) == expected

    def test_pieces_join_to_the_whole_stream(self, capsys, monkeypatch, tmp_path):
        # generate writes each piece of one live source as it is made
        path = tmp_path / "s"
        for piece_bits in (8, 64, 4096):
            monkeypatch.setattr(cli, "_GENERATE_BITS", piece_bits)
            for format in ("raw", "ascii"):
                code, _, _ = run(capsys, "generate", "--source", "xorshift64", "--seed", "3",
                                 "--nbits", "10001", "--out", str(path), "--format", format)
                assert code == 0
                want = generate(SourceConfig.xorshift64(3), 10001)
                assert read_file(path, format, 10001) == want

    def test_ascii_format(self, capsys, tmp_path):
        path = tmp_path / "s.txt"
        code, _, _ = run(capsys, "generate", "--source", "ideal",
                         "--nbits", "64", "--out", str(path),
                         "--format", "ascii")
        assert code == 0
        text = path.read_text().strip()
        assert len(text) == 64 and set(text) <= {"0", "1"}

    def test_inadmissible_markov_names_interval(self, capsys, tmp_path):
        code, _, err = run(capsys, "generate", "--source", "markov",
                           "--bias", "0.5", "--a1", "-0.9",
                           "--nbits", "10", "--out", str(tmp_path / "x"))
        assert code == 1
        assert "-0.333333" in err and "1]" in err

    def test_huge_dead_time_ratio_exits_1(self, capsys, tmp_path):
        # about tau_d/(2 tau) photons per bit: 5e11 here, which never finishes
        code, _, err = run(capsys, "generate", "--source", "deadtime",
                           "--tau", "1", "--dead-time", "1e12",
                           "--dead-mode", "loss", "--nbits", "10",
                           "--out", str(tmp_path / "x"))
        assert code == 1
        assert "error:" in err and "tau_d/tau" in err
        assert not (tmp_path / "x").exists()

    def test_missing_source_param(self, capsys, tmp_path):
        code, _, err = run(capsys, "generate", "--source", "bernoulli",
                           "--nbits", "10", "--out", str(tmp_path / "x"))
        assert code == 1
        assert "--p" in err

    def test_unknown_flag_exits_1(self, capsys, tmp_path):
        code, _, err = run(capsys, "generate", "--source", "ideal",
                           "--nbits", "10", "--out", str(tmp_path / "x"),
                           "--frobnicate")
        assert code == 1
        assert "error:" in err


class TestAnalyze:
    def make_file(self, tmp_path, config, n):
        path = tmp_path / "in.bits"
        seq = generate(config, n)
        path.write_bytes(seq.data)
        return path, seq

    def test_json_schema_and_values(self, capsys, tmp_path):
        path, seq = self.make_file(tmp_path, SourceConfig.markov(0.1, 0.1, seed=7), 50000)
        code, out, _ = run(capsys, "analyze", str(path), "--json",
                           "--nbits", "50000")
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"n_bits", "bias", "autocorr", "mi_lag1",
                            "cond_entropy", "deviation_plugin",
                            "deviation_markov", "deviation_sigma", "n_max"}
        assert set(doc["bias"]) == {"value", "sigma"}
        assert [e["lag"] for e in doc["autocorr"]] == list(range(1, 9))
        report = analyze(seq)
        assert doc["n_bits"] == 50000
        assert doc["bias"]["value"] == report.bias_hat
        assert doc["mi_lag1"] == report.mi_lag1_hat
        assert doc["deviation_plugin"] == report.deviation_plugin
        assert doc["n_max"] == report.n_max

    def test_table_lists_all_quantities(self, capsys, tmp_path):
        path, _ = self.make_file(tmp_path, SourceConfig.ideal(seed=3), 20000)
        code, out, _ = run(capsys, "analyze", str(path), "--max-lag", "2")
        assert code == 0
        lines = out.splitlines()
        labels = [line.split()[0] for line in lines]
        assert labels == ["n_bits", "bias", "autocorr[1]", "autocorr[2]",
                          "mi_lag1", "cond_entropy", "deviation_plugin",
                          "deviation_markov", "deviation_sigma", "n_max"]
        assert out == (
            "n_bits            20000\n"
            "bias              0.0023 +/- 0.00707107\n"
            "autocorr[1]       0.0029451 +/- 0.00707107\n"
            "autocorr[2]       -0.000305323 +/- 0.00707107\n"
            "mi_lag1           6.2567e-06\n"
            "cond_entropy      0.99999\n"
            "deviation_plugin  9.90889e-06\n"
            "deviation_markov  1.00726e-05\n"
            "deviation_sigma   3.78094e-05\n"
            "n_max             291192\n"
        )
        path = tmp_path / "short.txt"
        path.write_text("00110\n")
        code, out, _ = run(capsys, "analyze", str(path), "--format", "ascii",
                           "--max-lag", "1")
        assert code == 0
        assert out == (
            "n_bits            5\n"
            "bias              -0.2 +/- 0.447214\n"
            "autocorr[1]       0.0384615 +/- 0.447214\n"
            "mi_lag1           0\n"
            "cond_entropy      1\n"
            "deviation_plugin  0\n"
            "deviation_markov  0.029921\n"
            "deviation_sigma   0\n"
            "n_max             unbounded\n"
        )

    def test_alternating_ascii(self, capsys, tmp_path):
        path = tmp_path / "alt.txt"
        path.write_text("01" * 5000 + "\n")
        code, out, _ = run(capsys, "analyze", str(path), "--format", "ascii",
                           "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["deviation_plugin"] == 1.0
        assert doc["n_max"] == pytest.approx(2.8853900817779268)

    def test_constant_input_exits_1(self, capsys, tmp_path):
        path = tmp_path / "ones.bits"
        path.write_bytes(b"\xff" * 100)
        code, _, err = run(capsys, "analyze", str(path))
        assert code == 1
        assert "constant" in err

    def test_stdin_raw(self, capsys, monkeypatch, tmp_path):
        path, seq = self.make_file(tmp_path, SourceConfig.bernoulli(0.6, seed=1), 8000)
        feed_stdin(monkeypatch, seq.data)
        code, from_stdin, _ = run(capsys, "analyze", "-", "--json")
        assert code == 0
        code, from_file, _ = run(capsys, "analyze", str(path), "--json")
        assert code == 0
        assert from_stdin == from_file

    def test_stdin_rejects_ascii(self, capsys, monkeypatch):
        feed_stdin(monkeypatch, b"0101")
        code, _, err = run(capsys, "analyze", "-", "--format", "ascii")
        assert code == 1
        assert "raw" in err

    def test_nbits_truncates(self, capsys, monkeypatch):
        rng = np.random.default_rng(2)
        payload = rng.integers(0, 256, 1000, dtype=np.uint8).tobytes()
        feed_stdin(monkeypatch, payload)
        code, out, _ = run(capsys, "analyze", "-", "--nbits", "4096", "--json")
        assert code == 0
        assert json.loads(out)["n_bits"] == 4096

    def test_negative_nbits_exits_1(self, capsys, monkeypatch, tmp_path):
        raw = tmp_path / "r.bits"
        raw.write_bytes(b"\x5a" * 16)
        text = tmp_path / "a.txt"
        text.write_text("01" * 64 + "\n")
        for nbits in ("-1", "-5"):
            feed_stdin(monkeypatch, b"\x5a" * 16)
            for argv in ((str(raw),), (str(text), "--format", "ascii"), ("-",)):
                code, out, err = run(capsys, "analyze", *argv, "--nbits", nbits)
                assert code == 1 and out == ""
                assert err == f"error: nbits_override={nbits} outside [0, 128]\n"

    def test_max_lag_beyond_length_exits_1(self, capsys, tmp_path):
        # the length check comes before any lag is measured, so a huge
        # max_lag fails at once and in the same form as a small one
        path = tmp_path / "k.bits"
        path.write_bytes(b"\x5a" * 125)
        for max_lag in (1000, 3_000_000):
            start = time.monotonic()
            code, out, err = run(capsys, "analyze", str(path), "--max-lag", str(max_lag))
            assert time.monotonic() - start < 5.0
            assert code == 1 and out == ""
            assert err == (f"error: analysis up to lag {max_lag} needs at least "
                           f"{max_lag + 2} bits, got 1000\n")

    def test_missing_file_exits_3(self, capsys, tmp_path):
        code, _, err = run(capsys, "analyze", str(tmp_path / "nope.bits"))
        assert code == 3
        assert "error:" in err

    def test_deterministic_stdout(self, capsys, tmp_path):
        path, _ = self.make_file(tmp_path, SourceConfig.markov(0.02, 0.04, seed=9), 30000)
        outputs = set()
        for _ in range(2):
            code, out, _ = run(capsys, "analyze", str(path), "--json")
            assert code == 0
            outputs.add(out)
        assert len(outputs) == 1


class TestPredict:
    def test_markov_example(self, capsys):
        code, out, _ = run(capsys, "predict", "--source", "markov",
                           "--bias", "0.1", "--a1", "0.1")
        assert code == 0
        doc = json.loads(out)
        assert doc["deviation_exact"] == pytest.approx(0.014442, abs=5e-7)
        assert doc["deviation_approx"] == pytest.approx(0.014427, abs=5e-7)

    def test_deadtime_example(self, capsys):
        code, out, _ = run(capsys, "predict", "--source", "deadtime",
                           "--tau", "1000", "--dead-time", "40")
        assert code == 0
        doc = json.loads(out)
        assert doc["a1"] == pytest.approx(-0.039211, abs=5e-7)
        assert doc["deviation_approx"] == pytest.approx(1.109e-3, abs=5e-7)

    def test_ideal_all_zero(self, capsys):
        code, out, _ = run(capsys, "predict", "--source", "ideal")
        doc = json.loads(out)
        assert code == 0
        assert doc["bias"] == 0.0 and doc["a1"] == 0.0
        assert doc["mutual_info"] == 0.0
        assert doc["deviation_exact"] == 0.0 and doc["deviation_approx"] == 0.0

    def test_loss_mode_changes_a1(self, capsys):
        code, reroute, _ = run(capsys, "predict", "--source", "deadtime",
                               "--tau", "1000", "--dead-time", "40")
        assert code == 0
        code, loss, _ = run(capsys, "predict", "--source", "deadtime",
                            "--tau", "1000", "--dead-time", "40",
                            "--dead-mode", "loss")
        assert code == 0
        a_re = json.loads(reroute)["a1"]
        a_lo = json.loads(loss)["a1"]
        assert a_lo == pytest.approx(math.expm1(-0.02))
        assert a_lo > a_re


class TestNmax:
    def test_from_deviation(self, capsys):
        code, out, _ = run(capsys, "nmax", "--deviation", "1e-18")
        assert code == 0
        assert "n_max = 2.88539e+18" in out

    def test_from_a1(self, capsys):
        code, out, _ = run(capsys, "nmax", "--a1", "0.04")
        assert code == 0
        assert "deviation = 0.00115416" in out
        assert "n_max = 2500" in out

    def test_zero_deviation_unbounded(self, capsys):
        code, out, _ = run(capsys, "nmax", "--deviation", "0")
        assert code == 0
        assert "n_max = unbounded" in out

    def test_requires_one_form(self, capsys):
        code, _, err = run(capsys, "nmax")
        assert code == 1 and "error:" in err
        code, _, err = run(capsys, "nmax", "--deviation", "1e-3", "--a1", "0.1")
        assert code == 1 and "excludes" in err

    def test_bias_without_a1_rejected(self, capsys):
        code, _, err = run(capsys, "nmax", "--bias", "0.1")
        assert code == 1 and "error:" in err

    def test_negative_deviation_rejected(self, capsys):
        code, _, err = run(capsys, "nmax", "--deviation=-1e-3")
        assert code == 1 and "non-negative" in err

    def test_deviation_above_one_rejected(self, capsys):
        # the quadratic form of a1 = 1, bias = 0.9 is 1.31, outside its range
        for argv in (["--deviation", "inf"], ["--deviation", "5"],
                     ["--a1", "1", "--bias", "0.9"]):
            code, out, err = run(capsys, "nmax", *argv)
            assert code == 1 and out == "" and "error:" in err


class TestMonitorConfig:
    def test_defaults(self):
        config = MonitorConfig()
        assert config.window_bits == 1 << 20
        assert config.sigma_k == 3.0
        assert config.deviation_threshold is None
        config.validate()

    def test_rejects_bad_values(self):
        with pytest.raises(ParameterError):
            MonitorConfig(window_bits=512).validate()
        with pytest.raises(ParameterError):
            MonitorConfig(window_bits=2**32 + 1).validate()
        MonitorConfig(window_bits=2**32).validate()
        with pytest.raises(ParameterError):
            MonitorConfig(sigma_k=0.0).validate()
        with pytest.raises(ParameterError):
            MonitorConfig(deviation_threshold=-0.1).validate()
        with pytest.raises(ParameterError):
            MonitorConfig(deviation_threshold=math.nan).validate()


class TestMonitor:
    W = 16384

    def test_ideal_stream_ok(self, capsys, tmp_path):
        path = tmp_path / "i.bits"
        path.write_bytes(generate(SourceConfig.ideal(seed=9), 4 * self.W).data)
        code, out, _ = run(capsys, "monitor", str(path),
                           "--window-bits", str(self.W))
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 4
        assert all(line.endswith(",ok") for line in lines)
        assert [line.split(",")[0] for line in lines] == ["0", "1", "2", "3"]

    def test_markov_stream_alarms(self, capsys, tmp_path):
        path = tmp_path / "m.bits"
        path.write_bytes(generate(SourceConfig.markov(0.0, 0.1, seed=3),
                                  3 * self.W).data)
        code, out, _ = run(capsys, "monitor", str(path),
                           "--window-bits", str(self.W))
        assert code == 2
        lines = out.splitlines()
        assert len(lines) == 3
        assert all(line.endswith(",ALARM") for line in lines)

    def test_threshold_floor_suppresses_alarm(self, capsys, tmp_path):
        path = tmp_path / "m.bits"
        path.write_bytes(generate(SourceConfig.markov(0.0, 0.1, seed=3),
                                  2 * self.W).data)
        code, out, _ = run(capsys, "monitor", str(path),
                           "--window-bits", str(self.W),
                           "--deviation-threshold", "0.5")
        assert code == 0
        assert all(line.endswith(",ok") for line in out.splitlines())

    def test_short_stream_incomplete(self, capsys, tmp_path):
        path = tmp_path / "s.bits"
        path.write_bytes(generate(SourceConfig.ideal(seed=4), 9000).data)
        code, out, _ = run(capsys, "monitor", str(path),
                           "--window-bits", str(self.W))
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("0,") and lines[0].endswith(",incomplete")

    def test_trailing_partial_never_alarms(self, capsys, tmp_path):
        # markov tail would alarm if it were treated as a full window
        path = tmp_path / "t.bits"
        path.write_bytes(generate(SourceConfig.markov(0.0, 0.2, seed=6),
                                  self.W + 8000).data)
        code, out, _ = run(capsys, "monitor", str(path),
                           "--window-bits", str(self.W))
        assert code == 2
        lines = out.splitlines()
        assert lines[0].endswith(",ALARM")
        assert lines[1].endswith(",incomplete")

    def test_empty_stream_no_lines(self, capsys, monkeypatch):
        feed_stdin(monkeypatch, b"")
        code, out, _ = run(capsys, "monitor")
        assert code == 0
        assert out == ""

    def test_stdin_default(self, capsys, monkeypatch, tmp_path):
        seq = generate(SourceConfig.markov(0.0, 0.1, seed=3), 2 * self.W)
        feed_stdin(monkeypatch, seq.data)
        code, from_stdin, _ = run(capsys, "monitor",
                                  "--window-bits", str(self.W))
        assert code == 2
        path = tmp_path / "m.bits"
        path.write_bytes(seq.data)
        code, from_file, _ = run(capsys, "monitor", str(path),
                                 "--window-bits", str(self.W))
        assert code == 2
        assert from_stdin == from_file

    def test_window_values_match_library(self, capsys, tmp_path):
        # byte-aligned windows, windows off byte boundaries, and windows
        # that span several 64 KiB reads
        for w, code_want in ((self.W, 2), (1027, 0), (3 * 2**19 + 5, 2)):
            seq = generate(SourceConfig.markov(0.05, 0.05, seed=12), 3 * w + 100)
            path = tmp_path / "w.bits"
            path.write_bytes(seq.data)
            code, out, _ = run(capsys, "monitor", str(path),
                               "--window-bits", str(w))
            assert code == code_want
            bits = read_file(path).to_array()  # with the zero pads monitor reads
            lines = out.splitlines()
            assert len(lines) == 4
            for idx in range(4):
                window = bits[idx * w:(idx + 1) * w]
                counts = accumulate(PairCounts(), BitSequence.from_bits(window))
                d_hat = deviation_plugin(counts)
                sigma = deviation_sigma(d_hat, window.size)
                fields = lines[idx].split(",")
                assert fields[0] == str(idx)
                assert float(fields[1]) == pytest.approx(d_hat, rel=1e-5)
                assert float(fields[2]) == pytest.approx(sigma, rel=1e-5)
                if idx == 3:
                    assert 100 <= window.size < 108
                    assert fields[3] == "incomplete"
                else:
                    assert fields[3] == ("ALARM" if d_hat > 3.0 * sigma else "ok")

    def test_bad_window_exits_1(self, capsys, tmp_path):
        path = tmp_path / "x.bits"
        path.write_bytes(b"\x00" * 256)
        code, _, err = run(capsys, "monitor", str(path),
                           "--window-bits", "512")
        assert code == 1
        assert "1024" in err

    def test_missing_file_exits_3(self, capsys, tmp_path):
        code, _, _ = run(capsys, "monitor", str(tmp_path / "nope.bits"))
        assert code == 3


class TestValidateApprox:
    def test_prints_frozen_max(self, capsys):
        code, out, _ = run(capsys, "validate-approx", "--grid-step", "0.02")
        assert code == 0
        assert "max_relative_error = 0.00241899" in out
        assert "max_abs_z" not in out

    def test_empirical_adds_z(self, capsys):
        code, out, _ = run(capsys, "validate-approx", "--grid-step", "0.05",
                           "--nbits", "20000", "--seed", "77")
        assert code == 0
        assert "max_abs_z = " in out

    def test_csv_output(self, capsys, tmp_path):
        path = tmp_path / "grid.csv"
        code, _, _ = run(capsys, "validate-approx", "--grid-step", "0.05",
                         "--out", str(path))
        assert code == 0
        lines = path.read_text().splitlines()
        assert lines[0] == "b,a1,d_exact,d_approx,rel_err"
        assert len(lines) == 1 + 5 * 5 - 1

    def test_bad_step_exits_1(self, capsys):
        code, _, err = run(capsys, "validate-approx", "--grid-step", "0.3")
        assert code == 1 and "error:" in err
        for step in ("1e-7", "5e-324"):  # row counts past the cap
            code, out, err = run(capsys, "validate-approx", "--grid-step", step)
            assert code == 1 and out == ""
            assert err.startswith("error: ") and "rows, more than 1000000" in err


class TestFig2:
    def test_csv_file(self, capsys, tmp_path):
        path = tmp_path / "fig2.csv"
        code, out, _ = run(capsys, "fig2", "--min", "-0.99", "--max", "0.99",
                           "--step", "0.01", "--out", str(path))
        assert code == 0
        assert "199 rows" in out
        lines = path.read_text().splitlines()
        assert lines[0] == "a1,mi_exact,mi_approx"
        assert len(lines) == 200
        assert lines[100] == "0,0,0"

    def test_stdout_default(self, capsys):
        code, out, _ = run(capsys, "fig2", "--min", "0", "--max", "0.02",
                           "--step", "0.01")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "a1,mi_exact,mi_approx"
        assert lines[1] == "0,0,0"
        assert len(lines) == 4

    def test_empty_range_exits_1(self, capsys):
        code, _, err = run(capsys, "fig2", "--min", "0.001", "--max", "0.009",
                           "--step", "0.01")
        assert code == 1 and "error:" in err

    def test_too_many_rows_exits_1(self, capsys):
        for step in ("1e-300", "5e-324"):
            code, out, err = run(capsys, "fig2", "--min", "-0.5", "--max", "0.5",
                                 "--step", step)
            assert code == 1 and out == ""
            assert err.startswith("error: ") and "rows, more than 1000000" in err


class TestConcat:
    def test_byte_aligned_join(self, capsys, tmp_path):
        a = generate(SourceConfig.bernoulli(0.6, seed=1), 8000)
        b = generate(SourceConfig.bernoulli(0.6, seed=2), 4000)
        pa, pb, pc = (tmp_path / n for n in ("a.bits", "b.bits", "c.bits"))
        pa.write_bytes(a.data)
        pb.write_bytes(b.data)
        code, out, _ = run(capsys, "concat", str(pa), str(pb), "--out", str(pc))
        assert code == 0
        assert "wrote 12000 bits" in out
        assert pc.read_bytes() == a.data + b.data

    def test_three_ascii_files(self, capsys, tmp_path):
        parts = ["0101", "1", "0011001"]
        paths = []
        for i, text in enumerate(parts):
            p = tmp_path / f"p{i}.txt"
            p.write_text(text + "\n")
            paths.append(str(p))
        out_path = tmp_path / "all.txt"
        code, _, _ = run(capsys, "concat", *paths, "--out", str(out_path),
                         "--format", "ascii")
        assert code == 0
        assert out_path.read_text().strip() == "".join(parts)

    def test_missing_input_exits_3(self, capsys, tmp_path):
        code, _, _ = run(capsys, "concat", str(tmp_path / "nope"),
                         "--out", str(tmp_path / "o"))
        assert code == 3

    def test_output_may_be_an_input(self, capsys, tmp_path):
        # the inputs stream into a new file that replaces the output only
        # once it is complete, so an input named as the output is read
        # whole first, and a failed join leaves the output as it was
        a = generate(SourceConfig.bernoulli(0.6, seed=1), 8000).data
        b = generate(SourceConfig.bernoulli(0.6, seed=2), 4000).data
        pa, pb = tmp_path / "a.bits", tmp_path / "b.bits"
        pa.write_bytes(a)
        pb.write_bytes(b)
        code, out, _ = run(capsys, "concat", str(pa), str(pb), str(pa), "--out", str(pa))
        assert code == 0 and "wrote 20000 bits" in out
        assert pa.read_bytes() == a + b + a
        code, _, _ = run(capsys, "concat", str(pb), str(tmp_path / "nope"), "--out", str(pb))
        assert code == 3
        assert pb.read_bytes() == b
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.bits", "b.bits"]

    def test_output_that_is_no_file_is_written_in_place(self, capsys, tmp_path):
        # a pipe (like a device) has nothing to replace: the bits go into it
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
        reader.start()
        a = tmp_path / "a.bits"
        a.write_bytes(b"\x5a" * 16)
        code, _, _ = run(capsys, "concat", str(a), str(a), "--out", str(fifo))
        reader.join(timeout=30)
        assert code == 0 and not reader.is_alive()
        assert got == [b"\x5a" * 32]
        assert stat.S_ISFIFO(fifo.stat().st_mode)


class TestTopLevel:
    def test_no_command_exits_1(self, capsys):
        code, _, err = run(capsys)
        assert code == 1 and "error:" in err

    def test_unknown_command_exits_1(self, capsys):
        code, _, err = run(capsys, "bogus")
        assert code == 1 and "invalid choice" in err


class TestMemory:
    def test_peak_rss_does_not_grow_with_the_stream(self):
        # forked generate and analyze children at 2^23 and 2^27 bits: the
        # script checks each command's peaks are within 4 MiB of each other
        script = Path(__file__).with_name("cli_peak_rss.py")
        done = subprocess.run([sys.executable, str(script), str(2**23), str(2**27)],
                              capture_output=True, text=True, timeout=300)
        rows = [json.loads(line) for line in done.stdout.splitlines()]
        assert [(r["command"], r["nbits"]) for r in rows] == [
            ("generate", 2**23), ("analyze", 2**23), ("generate", 2**27), ("analyze", 2**27)]
        assert done.returncode == 0, rows


def fresh(code: str):
    """The JSON that ``code``, run in a fresh interpreter, prints last."""
    src = str(Path(randev.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def modules_after(argv):
    return set(fresh("import json, sys\n"
                     "from randev.cli import main\n"
                     f"assert main({argv!r}) == 0\n"
                     "print(json.dumps(sorted(sys.modules)))\n"))


class TestImports:
    """Each command loads only the stages it runs."""

    def test_generate_loads_no_estimators(self, tmp_path):
        loaded = modules_after(["generate", "--source", "xorshift64", "--seed", "1",
                                "--nbits", "1000", "--out", str(tmp_path / "x.bits")])
        assert "randev.sources" in loaded
        assert not loaded & {"randev.estimators", "randev.experiments", "randev.model",
                             "concurrent.futures"}

    def test_analyze_loads_no_experiments(self, tmp_path):
        path = tmp_path / "x.bits"
        path.write_bytes(generate(SourceConfig.ideal(seed=1), 4096).data)
        loaded = modules_after(["analyze", str(path)])
        assert "randev.estimators" in loaded
        assert "randev.experiments" not in loaded

    def test_star_import_binds_all_from_home_modules(self):
        # a name's home is the stage whose __all__ lists it; model's
        # deviation_quadratic is also listed by estimators, as one object
        bound, names, mismatched = fresh(
            "import importlib, json, sys\n"
            "import randev\n"
            "bound = {}\n"
            "exec('from randev import *', bound)\n"
            "bound.pop('__builtins__')\n"
            "stages = [importlib.import_module('randev.' + s) for s in\n"
            "          ('bitstream', 'sources', 'model', 'estimators', 'experiments')]\n"
            "mismatched = [n for n in randev.__all__\n"
            "              if not any(n in m.__all__ for m in stages)\n"
            "              or any(n in m.__all__ and bound[n] is not getattr(m, n)\n"
            "                     for m in stages)]\n"
            "print(json.dumps([sorted(bound), randev.__all__, mismatched]))\n")
        assert bound == names
        assert len(names) == 49
        assert mismatched == []

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            randev.no_such_name

    def test_stage_is_an_attribute_before_its_import(self):
        assert fresh("import json, randev\n"
                     "print(json.dumps(randev.model.__name__))\n") == "randev.model"
