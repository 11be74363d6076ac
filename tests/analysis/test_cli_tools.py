"""CLI tests for the instrumentation subcommands."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import main

N = "32"


class TestInstrumentedCommands:
    def test_profile(self, capsys):
        assert main(["profile", "SQRT32", "--samples", N]) == 0
        out = capsys.readouterr().out
        assert "symbol" in out and "hottest instructions" in out

    def test_timeline(self, capsys):
        assert main(["timeline", "SQRT32", "--samples", N,
                     "--width", "60"]) == 0
        out = capsys.readouterr().out
        assert "core0 |" in out and "lockstep ratio" in out

    def test_vcd(self, tmp_path, capsys):
        target = str(tmp_path / "wave.vcd")
        assert main(["vcd", "SQRT32", "--samples", N, "-o", target]) == 0
        text = open(target).read()
        assert text.startswith("$comment")
        assert "core7_pc" in text

    def test_syncstats(self, capsys):
        assert main(["syncstats", "SQRT32", "--samples", N]) == 0
        out = capsys.readouterr().out
        assert "checkpoint" in out and "#2" in out

    def test_syncstats_baseline_fails_gracefully(self, capsys):
        assert main(["syncstats", "SQRT32", "--design", "without-sync",
                     "--samples", N]) == 1

    def test_energy(self, capsys):
        assert main(["energy", "--samples", N]) == 0
        assert "pJ/op" in capsys.readouterr().out

    def test_profile_on_minic_benchmark(self, capsys):
        assert main(["profile", "MRPDLN", "--samples", N]) == 0
        out = capsys.readouterr().out
        assert "f_main" in out or "f_dilate" in out

    def test_trace_accounts_for_every_cycle(self, tmp_path, capsys):
        target = str(tmp_path / "trace.json")
        assert main(["trace", "MRPFLTR", "--samples", "8",
                     "--out", target]) == 0
        out = capsys.readouterr().out
        total = int(re.search(r"over (\d+) cycles", out).group(1))
        paths = re.search(r"(\d+) lockstep \+ (\d+) divergent \+ (\d+) "
                          r"sleep cycles on fast paths, (\d+) step\(\) "
                          r"cycles", out)
        # the fast paths and what step() still ran add up to the run
        assert sum(int(count) for count in paths.groups()) == total
        assert "replayed by the lockstep and divergent bursts" in out

    @pytest.mark.parametrize("command", [["syncstats"],
                                         ["synclint", "--crosscheck"]])
    def test_window_past_the_bank_layout_is_rejected(self, command, capsys):
        # 400 samples overrun the per-bank buffers (384 at most): a
        # usage error, as for every --samples option
        with pytest.raises(SystemExit) as exit_info:
            main([*command, "MRPDLN", "--samples", "400"])
        assert exit_info.value.code == 2
        assert "sample count 400 outside" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["syncstats", "MRPDLN", "--samples", "400"],
    ["speedup", "--samples", "400"],
    ["sweep", "--no-cache", "--no-manifest", "--samples", "0"],
    ["client", "--samples", "8", "385"],
    ["run", "SQRT32", "--samples", "many"],
])
def test_samples_outside_the_layout_are_a_usage_error(argv, capsys):
    """Every --samples option rejects a window the per-bank buffers
    cannot hold before any work starts: exit 2, one error line after
    the usage text, no traceback."""
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert [line for line in lines if "error:" in line] == lines[-1:]
    assert "argument --samples:" in lines[-1]
    assert "Traceback" not in captured.err


class TestClosedPipe:
    def test_reader_that_stops_after_one_line_gets_no_traceback(self,
                                                                tmp_path):
        # far more than a pipe buffer of output, so the writer is still
        # printing when the reader goes away
        rows = tmp_path / "runs.jsonl"
        rows.write_text("".join(
            json.dumps({"index": i, "label": f"run {i}", "error": None,
                        "source": "executed", "elapsed": 0.001}) + "\n"
            for i in range(5000)))
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "stats", str(rows)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        first = proc.stdout.readline()
        proc.stdout.close()
        status = proc.wait(timeout=60)
        with proc.stderr:
            stderr = proc.stderr.read().decode()
        assert first.startswith(b"(no manifest.json")
        assert status == 1
        assert "Traceback" not in stderr, stderr
        assert "BrokenPipeError" not in stderr, stderr

    def test_no_stdout_at_all_is_not_an_error(self, tmp_path, monkeypatch):
        # fd 1 closed at start (``repro stats ... >&-``) leaves
        # sys.stdout None, and print() a no-op
        rows = tmp_path / "runs.jsonl"
        rows.write_text(json.dumps({"index": 0, "label": "run 0",
                                    "error": None, "source": "executed",
                                    "elapsed": 0.001}) + "\n")
        monkeypatch.setattr(sys, "stdout", None)
        assert main(["stats", str(rows)]) == 0


class TestReport:
    def test_report_to_stdout(self, capsys):
        assert main(["report", "--samples", N]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out and "Fig. 3" in out and "pJ/op" in out

    def test_report_to_file(self, tmp_path, capsys):
        target = str(tmp_path / "report.txt")
        assert main(["report", "--samples", N, "-o", target]) == 0
        assert "Reproduction report" in open(target).read()
