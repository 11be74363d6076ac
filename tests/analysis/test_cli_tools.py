"""CLI tests for the instrumentation subcommands."""

import re

import pytest

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


class TestReport:
    def test_report_to_stdout(self, capsys):
        assert main(["report", "--samples", N]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out and "Fig. 3" in out and "pJ/op" in out

    def test_report_to_file(self, tmp_path, capsys):
        target = str(tmp_path / "report.txt")
        assert main(["report", "--samples", N, "-o", target]) == 0
        assert "Reproduction report" in open(target).read()
