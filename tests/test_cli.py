"""In-process tests of the command-line interface."""

import gc
import io
import json
import math
import os
import select
import stat
import subprocess
import sys
import threading
import time
import tokenize
import types
from pathlib import Path

import numpy as np
import pytest

import randev
from randev import bitstream, cli, sources
from randev.bitstream import BitSequence, read_file
from randev.cli import main
from randev.config import MonitorConfig
from randev.estimators import _MAX_LAG, accumulate, analyze
from randev.model import deviation_sigma
from randev.sources import ParameterError, SourceConfig, generate
from randev.stats import PairCounts, deviation_plugin


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
            monkeypatch.setattr(bitstream, "_PIECE_BITS", piece_bits)
            for format in ("raw", "ascii"):
                code, _, _ = run(capsys, "generate", "--source", "xorshift64", "--seed", "3",
                                 "--nbits", "10001", "--out", str(path), "--format", format)
                assert code == 0
                want = generate(SourceConfig.xorshift64(3), 10001)
                assert read_file(path, format, 10001) == want

    def test_failure_keeps_the_old_output(self, capsys, monkeypatch, tmp_path):
        # the pieces go to a file beside --out, renamed over it once complete
        path = tmp_path / "s.bits"
        path.write_bytes(b"OLD")
        real, calls = sources.Source.generate, []

        def fail_second(self, n):
            calls.append(n)
            if len(calls) == 2:
                raise OSError("device gone")
            return real(self, n)

        monkeypatch.setattr(bitstream, "_PIECE_BITS", 64)
        monkeypatch.setattr(sources.Source, "generate", fail_second)
        code, _, err = run(capsys, "generate", "--source", "ideal", "--nbits", "1000",
                           "--out", str(path))
        assert (code, err) == (3, "error: device gone\n")
        assert len(calls) == 2
        assert path.read_bytes() == b"OLD"
        assert sorted(tmp_path.iterdir()) == [path]

    def test_interrupt_exits_130_with_one_error_line(self, capsys, monkeypatch, tmp_path):
        # Ctrl-C mid-stream: one error line, no traceback, the status a
        # shell reports for SIGINT, and the old output left whole
        path = tmp_path / "s.bits"
        path.write_bytes(b"OLD")

        def interrupted(self, n):
            raise KeyboardInterrupt

        monkeypatch.setattr(sources.Source, "generate", interrupted)
        code, out, err = run(capsys, "generate", "--source", "ideal", "--nbits", "1000",
                             "--out", str(path))
        assert (code, out, err) == (130, "", "error: interrupted\n")
        assert path.read_bytes() == b"OLD"
        assert sorted(tmp_path.iterdir()) == [path]

    def test_negative_count_writes_no_file(self, capsys, tmp_path):
        path = tmp_path / "s.bits"
        code, _, err = run(capsys, "generate", "--source", "ideal", "--nbits", "-1",
                           "--out", str(path))
        assert code == 1
        assert "bit count must be non-negative" in err
        assert list(tmp_path.iterdir()) == []
        # no bits make an empty file
        code, out, _ = run(capsys, "generate", "--source", "ideal", "--nbits", "0",
                           "--out", str(path))
        assert (code, out) == (0, f"wrote 0 bits (raw) to {path}\n")
        assert path.read_bytes() == b""
        assert list(tmp_path.iterdir()) == [path]

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
                            "deviation_sigma", "n_max"}
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
                          "deviation_sigma", "n_max"]
        assert out == (
            "n_bits            20000\n"
            "bias              0.0023 +/- 0.00707107\n"
            "autocorr[1]       0.0029451 +/- 0.00707107\n"
            "autocorr[2]       -0.000305323 +/- 0.00707107\n"
            "mi_lag1           6.2567e-06\n"
            "cond_entropy      0.99999\n"
            "deviation_plugin  9.90889e-06\n"
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
                assert err == f"error: nbits_override={nbits} must be non-negative\n"

    def test_bad_arguments_fail_before_an_endless_stdin_is_read(self, capsys, monkeypatch):
        # as `cat /dev/zero | randev analyze - ...`: a check that needs no
        # read fails at once, and the stream is never read
        class Endless:
            reads = 0

            def read(self, size=-1):
                self.reads += 1
                if size < 0 or self.reads > 100:  # a hang, cut short
                    pytest.fail("an endless stream was read to no end")
                return bytes(size)

        stdin = Endless()
        monkeypatch.setattr(sys, "stdin", types.SimpleNamespace(buffer=stdin))
        for flags, message in ((("--max-lag", "0"), "max_lag=0 must be at least 1"),
                               (("--max-lag", "30000000"),
                                f"max_lag=30000000 must be at most {_MAX_LAG}"),
                               (("--nbits", "-1"), "nbits_override=-1 must be non-negative")):
            code, out, err = run(capsys, "analyze", "-", *flags)
            assert (code, out, err) == (1, "", f"error: {message}\n")
        assert stdin.reads == 0

    def test_max_lag_beyond_length_exits_1(self, capsys, tmp_path):
        # the length check comes before any lag is measured, so a huge
        # max_lag fails at once and in the same form as a small one
        path = tmp_path / "k.bits"
        path.write_bytes(b"\x5a" * 125)
        for max_lag in (1000, _MAX_LAG):
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
        assert doc["a1"] == pytest.approx(-0.038462, abs=5e-7)
        assert doc["deviation_approx"] == pytest.approx(1.067e-3, abs=5e-7)

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
        assert a_lo == pytest.approx(-0.04 / 2.04)
        assert a_lo > a_re

    @pytest.mark.parametrize("command", ["predict", "generate"])
    @pytest.mark.parametrize("flags, stray", [
        (["--source", "ideal", "--p", "0.9"], "--p does not apply to ideal"),
        (["--source", "splitter", "--bias", "0.1", "--a1", "0.5"],
         "--a1 does not apply to splitter"),
        (["--source", "markov", "--bias", "0", "--a1", "0.1", "--tau", "1"],
         "--tau does not apply to markov"),
        (["--source", "xorshift64", "--seed", "5", "--dead-time", "1"],
         "--dead-time does not apply to xorshift64"),
        (["--source", "ideal", "--dead-mode", "loss"], "--dead-mode does not apply to ideal"),
    ], ids=["ideal-p", "splitter-a1", "markov-tau", "xorshift64-dead-time", "ideal-dead-mode"])
    def test_rejects_flags_of_other_kinds(self, capsys, tmp_path, command, flags, stray):
        out = tmp_path / "out.bits"
        extra = ["--nbits", "64", "--out", str(out)] if command == "generate" else []
        code, stdout, err = run(capsys, command, *flags, *extra)
        assert (code, stdout, err) == (1, "", f"error: {stray}\n")
        assert not out.exists()


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
        assert cli.MonitorConfig is MonitorConfig
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
        with pytest.raises(ParameterError):
            MonitorConfig(window_bits=1024.5).validate()
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

    def test_window_line_reaches_a_live_pipe(self):
        # one window's bytes on a pipe left open: its line must arrive
        # before the stream ends, with stdout a pipe and not unbuffered
        env = child_env()
        env.pop("PYTHONUNBUFFERED", None)
        proc = subprocess.Popen(
            [sys.executable, "-m", "randev.cli", "monitor", "--window-bits", "1024"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env)
        try:
            proc.stdin.write(generate(SourceConfig.ideal(seed=1), 1024).data)
            proc.stdin.flush()
            out, deadline = b"", time.monotonic() + 30
            while b"\n" not in out and time.monotonic() < deadline:
                ready, _, _ = select.select([proc.stdout], [], [], 1.0)
                if ready:
                    out += os.read(proc.stdout.fileno(), 4096) or b"EOF\n"
            assert out.startswith(b"0,") and out.endswith(b",ok\n"), out
            assert proc.poll() is None  # the stream is still open
        finally:
            proc.stdin.close()
            proc.kill()
            proc.wait()
            proc.stdout.close()

    def test_window_values_match_library(self, capsys, monkeypatch, tmp_path):
        # byte-aligned windows, windows off byte boundaries, and windows
        # that span several reads, here of 97 bytes, at bit offsets
        monkeypatch.setattr(bitstream, "_READ_BYTES", 97)
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
                if idx == 3:
                    assert 100 <= window.size < 108
                    status = "incomplete"
                else:
                    status = "ALARM" if d_hat > 3.0 * sigma else "ok"
                assert lines[idx] == f"{idx},{d_hat:.6g},{sigma:.6g},{status}"

    def test_bad_window_exits_1(self, capsys, monkeypatch, tmp_path):
        # the settings are checked before the input is opened, so a path,
        # stdin and a missing file all fail alike
        path = tmp_path / "x.bits"
        path.write_bytes(b"\x00" * 256)
        feed_stdin(monkeypatch, b"\x00" * 256)
        for source in (str(path), "-", str(tmp_path / "nope.bits")):
            code, _, err = run(capsys, "monitor", source,
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


class TestExit:
    """``cli_main`` freezes the heap before the process exits, so the
    collector's last pass skips what the imports left; ``main`` never does."""

    def test_main_leaves_the_heap_unfrozen(self, capsys, tmp_path):
        path = tmp_path / "x.bits"
        path.write_bytes(generate(SourceConfig.ideal(seed=1), 4096).data)
        before = gc.get_freeze_count()
        for argv in (["analyze", str(path), "--json"], ["predict", "--source", "ideal"],
                     ["predict", "--source", "ideal", "--p", "0.9"]):
            run(capsys, *argv)
        assert gc.get_freeze_count() == before

    @pytest.mark.parametrize("argv, want", [
        (["predict", "--source", "ideal"], 0),
        (["predict", "--source", "ideal", "--p", "0.9"], 1),
    ], ids=["predict", "stray-flag"])
    def test_cli_main_exits_with_mains_code_on_a_frozen_heap(self, monkeypatch, argv, want):
        monkeypatch.setattr(sys, "argv", ["randev", *argv])
        try:
            with pytest.raises(SystemExit) as exc:
                cli.cli_main()
            assert exc.value.code == want
            assert gc.get_freeze_count() > 0
        finally:
            gc.unfreeze()

    def test_child_prints_and_writes_what_main_does(self, capsys, tmp_path):
        path, out = tmp_path / "x.bits", tmp_path / "y.bits"
        path.write_bytes(generate(SourceConfig.markov(0.05, 0.1, seed=4), 100_003).data)
        code, want, _ = run(capsys, "analyze", str(path), "--json")
        assert code == 0
        done = subprocess.run([sys.executable, "-m", "randev.cli", "analyze", str(path),
                               "--json"], stdout=subprocess.PIPE, env=child_env(),
                              timeout=120)
        assert (done.returncode, done.stdout.decode()) == (0, want)
        done = subprocess.run([sys.executable, "-m", "randev.cli", "generate", "--source",
                               "markov", "--bias", "0.1", "--a1", "0.1", "--seed", "7",
                               "--nbits", "100003", "--out", str(out)],
                              stdout=subprocess.DEVNULL, env=child_env(), timeout=120)
        assert done.returncode == 0
        assert out.read_bytes() == generate(SourceConfig.markov(0.1, 0.1, seed=7), 100_003).data


class TestMemory:
    def test_peak_rss_does_not_grow_with_the_stream(self):
        # forked generate, analyze and monitor children at 2^23 and 2^27
        # bits, monitor also with 1024-bit windows and with one window
        # longer than either stream: the script checks each command's peaks
        # are within 4 MiB of each other, that no source kind's generate
        # peaks more than 1 MiB above ideal's at 2*10^6 bits, and that
        # --help, predict and a raw concat of two of those files peak below
        # a bare numpy import
        script = Path(__file__).with_name("cli_peak_rss.py")
        done = subprocess.run([sys.executable, str(script), str(2**23), str(2**27)],
                              capture_output=True, text=True, timeout=300)
        rows = [json.loads(line) for line in done.stdout.splitlines()]
        assert [(r["command"], r["nbits"]) for r in rows] == [
            ("import numpy", None)] + [
            (f"generate {kind}", 2_000_000) for kind in (
                "ideal", "bernoulli", "markov a1<0", "deadtime reroute", "deadtime loss",
                "xorshift64")] + [
            ("--help", None), ("predict", None), ("concat", None)] + [
            (command, nbits) for nbits in (2**23, 2**27)
            for command in ("generate", "analyze", "monitor", "monitor --window-bits 1024",
                            "monitor --window-bits 2**30")]
        assert done.returncode == 0, rows


def child_env() -> dict:
    """The environment of a child interpreter that imports this randev."""
    src = str(Path(randev.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def fresh(code: str):
    """The JSON that ``code``, run in a fresh interpreter, prints last."""
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=child_env(), timeout=120, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def modules_after(argv):
    """The modules a fresh interpreter holds after ``randev`` ran argv, in
    the order their imports began.  ``sys.modules`` has the order they
    ended: a module is moved to its end once its body has run."""
    return fresh("import json, sys\n"
                 "began = list(sys.modules)\n"
                 "class Log:  # first on the meta path, so it sees each import begin\n"
                 "    def find_spec(name, *rest):\n"
                 "        began.append(name)\n"
                 "sys.meta_path.insert(0, Log)\n"
                 "from randev.cli import main\n"
                 "try:\n"
                 f"    code = main({argv!r})\n"
                 "except SystemExit as exc:\n"
                 "    code = exc.code\n"
                 "assert code == 0\n"
                 "print(json.dumps([m for m in dict.fromkeys(began) if m in sys.modules]))\n")


class TestImports:
    """Each command loads only the stages it runs."""

    @pytest.mark.parametrize("argv, needs, shuns", [
        # the parser and the closed forms need no numpy
        (["--help"], {"randev.config"},
         {"numpy", "randev.bitstream", "randev.model", "randev.stats"}),
        (["predict", "--source", "deadtime", "--tau", "1", "--dead-time", "0.5"],
         {"randev.model"}, {"numpy", "randev.bitstream"}),
        (["nmax", "--a1", "0.01"], {"randev.model"}, {"numpy", "randev.bitstream"}),
        # measuring a stream runs no generator
        (["analyze", "{bits}"], {"randev.estimators", "randev.stats"},
         {"randev.sources", "randev.experiments", "randev.windows"}),
        # a window's statistics need its counts, not the lag kernel
        (["monitor", "{bits}", "--window-bits", "1024"], {"randev.windows", "randev.stats"},
         {"randev.sources", "randev.experiments", "randev.estimators"}),
        # generating one runs no estimator
        (["generate", "--source", "xorshift64", "--seed", "1", "--nbits", "1000",
          "--out", "{out}"], {"randev.sources"},
         {"randev.estimators", "randev.windows", "randev.model", "randev.experiments",
          "randev.stats", "concurrent.futures"}),
        # joining raw files moves packed bytes, and ascii ones parse characters
        (["concat", "{bits}", "{bits}", "--out", "{out}"], {"randev.bitstream"},
         {"numpy", "randev.sources", "randev.model", "randev.stats", "randev.estimators"}),
        (["concat", "{text}", "{text}", "--format", "ascii", "--out", "{out}"],
         {"randev.bitstream", "numpy"},
         {"randev.sources", "randev.model", "randev.stats", "randev.estimators"}),
        # the closed-form experiments generate and measure no stream
        (["fig2"], {"randev.experiments", "randev.model"},
         {"numpy", "randev.bitstream", "randev.sources", "randev.estimators"}),
        (["validate-approx"], {"randev.experiments", "randev.model"},
         {"numpy", "randev.bitstream", "randev.sources", "randev.estimators"}),
    ], ids=["help", "predict", "nmax", "analyze", "monitor", "generate", "concat",
            "concat-ascii", "fig2", "validate-approx"])
    def test_each_command_loads_only_what_it_runs(self, tmp_path, argv, needs, shuns):
        bits, text = tmp_path / "x.bits", tmp_path / "x.txt"
        bits.write_bytes(generate(SourceConfig.ideal(seed=1), 4096).data)
        text.write_text("0110\n")
        order = modules_after([a.format(bits=bits, text=text, out=tmp_path / "y.bits")
                               for a in argv])
        loaded = set(order)
        assert needs <= loaded
        # a child without bytecode files compiles randev's modules from
        # source, at a lower peak before numpy is loaded
        early = {"monitor": {"randev.windows", "randev.stats", "randev.model",
                             "randev.bitstream"},
                 "generate": {"randev.bitstream", "randev.sources"}}.get(argv[0])
        if early:
            assert early <= set(order[:order.index("numpy")])
        # no record type is a dataclass, whose definition compiles code
        assert loaded & (shuns | {"dataclasses"}) == set()

    @pytest.mark.parametrize("module", ["randev.stats", "randev.bitstream"])
    def test_stats_loads_no_numpy(self, module):
        # the arithmetic on counts needs only model and the standard library,
        # and packed bytes need numpy only where an array is made
        assert "numpy" not in fresh("import json, sys\n"
                                    f"import {module}\n"
                                    "print(json.dumps(sorted(sys.modules)))\n")

    def test_star_import_binds_all_from_home_modules(self):
        # a name's home is the one stage whose __all__ lists it, and every
        # module's __all__ lists only names that module defines, so a name
        # imported from another stage is used there, not listed again
        bound, names, mismatched, foreign = fresh(
            "import importlib, json, sys\n"
            "import randev\n"
            "bound = {}\n"
            "exec('from randev import *', bound)\n"
            "bound.pop('__builtins__')\n"
            "stages = [importlib.import_module('randev.' + s) for s in randev._STAGES]\n"
            "modules = stages + [importlib.import_module('randev.cli')]\n"
            "mismatched = [n for n in randev.__all__\n"
            "              if [bound[n] is getattr(m, n) for m in stages\n"
            "                  if n in getattr(m, '__all__', ())] != [True]]\n"
            "foreign = [f'{m.__name__}.{n}' for m in modules\n"
            "           for n in getattr(m, '__all__', ())\n"
            "           if getattr(getattr(m, n), '__module__', m.__name__) != m.__name__]\n"
            "print(json.dumps([sorted(bound), randev.__all__, mismatched, foreign]))\n")
        assert bound == names
        assert len(names) == 43
        assert mismatched == []
        assert foreign == []

    def test_every_module_stays_below_4096_tokens(self):
        # CPython's parser doubles its token array at 4096 tokens, and a
        # module past that compiles with about 0.3 MiB more peak memory,
        # which every command that loads it pays
        counts = {}
        for path in sorted(Path(randev.__file__).parent.glob("*.py")):
            with open(path, "rb") as fh:
                counts[path.name] = sum(
                    tok.type not in (tokenize.COMMENT, tokenize.NL, tokenize.ENCODING)
                    for tok in tokenize.tokenize(fh.readline))
        assert "estimators.py" in counts
        assert {name: n for name, n in counts.items() if n >= 4096} == {}

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            randev.no_such_name

    def test_stage_is_an_attribute_before_its_import(self):
        assert fresh("import json, randev\n"
                     "print(json.dumps(randev.model.__name__))\n") == "randev.model"
