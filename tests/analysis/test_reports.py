"""Tests for experiment runners, report formatters and the CLI."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.analysis import (
    access_rows,
    default_executor,
    evaluation_channels,
    fig3_series,
    format_accesses,
    format_fig3,
    format_novscale,
    format_speedup,
    format_table1,
    novscale_savings,
    power_models,
    reference_runs,
    speedup_rows,
    table1_values,
)
from repro.power import Component

N = 32


@pytest.fixture(scope="module")
def runs():
    return reference_runs(n_samples=N)


@pytest.fixture(scope="module")
def models(runs):
    return power_models(runs)


class TestReferenceRuns:
    def test_cached(self, runs):
        again = reference_runs(n_samples=N)
        assert {key: run.to_key() for key, run in again.items()} \
            == {key: run.to_key() for key, run in runs.items()}
        # the repeat call was served from the result cache, not re-run
        metrics = default_executor().last_metrics
        assert metrics.executed == 0
        assert metrics.cache_hits == len(again)

    def test_covers_all_pairs(self, runs):
        assert set(runs) == {
            (b, d) for b in ("MRPFLTR", "SQRT32", "MRPDLN")
            for d in ("with-sync", "without-sync")}

    def test_channels_reproducible(self):
        assert evaluation_channels(16) == evaluation_channels(16)


class TestDerivedRows:
    def test_speedup_rows(self, runs):
        rows = speedup_rows(runs)
        assert len(rows) == 3
        for row in rows:
            assert row.speedup > 1.0
            assert row.ops_per_cycle_with > row.ops_per_cycle_without

    def test_access_rows(self, runs):
        for row in access_rows(runs):
            assert 0.3 < row.im_reduction < 0.9
            assert -0.05 < row.dm_increase < 0.3


class TestTable1:
    def test_values_structure(self, models):
        values = table1_values(models)
        for design in ("with-sync", "without-sync"):
            assert set(values[design]) == set(Component) | {"total"}
            lo, hi = values[design]["total"]
            assert 0 < lo <= hi

    def test_synchronizer_zero_for_baseline(self, models):
        values = table1_values(models)
        assert values["without-sync"][Component.SYNCHRONIZER] == (0.0, 0.0)

    def test_formatting(self, models):
        text = format_table1(models)
        assert "Table I" in text
        assert "Clock Tree" in text
        assert "paper" in text


class TestFig3:
    @pytest.mark.parametrize("bench", ["MRPFLTR", "SQRT32", "MRPDLN"])
    def test_series_shape(self, models, bench):
        series = fig3_series(models, bench)
        # baseline curve ends before the improved curve
        assert series.max_without[0] < series.max_with[0]
        # at every shared feasible workload, the improved design is cheaper
        for wo, w in zip(series.power_without, series.power_with):
            if wo is not None and w is not None:
                assert w < wo
        assert 0.3 < series.savings_at_baseline_peak < 0.8

    def test_formatting(self, models):
        text = format_fig3(models, "MRPFLTR")
        assert "MOps/s" in text and "savings" in text


class TestTextClaims:
    def test_novscale_savings(self, models):
        savings = novscale_savings(models)
        assert set(savings) == {"MRPFLTR", "SQRT32", "MRPDLN"}
        for value in savings.values():
            assert 0.15 < value < 0.6

    def test_formatters_render(self, runs, models):
        assert "speedup" in format_speedup(speedup_rows(runs)).lower()
        assert "IM" in format_accesses(access_rows(runs))
        assert "38%" in format_novscale(models)


class TestCli:
    def invoke(self, *argv):
        from repro.cli import main
        return main(list(argv))

    def test_table1(self, capsys):
        assert self.invoke("table1", "--samples", str(N)) == 0
        assert "Table I" in capsys.readouterr().out

    def test_fig3_single(self, capsys):
        assert self.invoke("fig3", "SQRT32", "--samples", str(N)) == 0
        assert "SQRT32" in capsys.readouterr().out

    def test_speedup(self, capsys):
        assert self.invoke("speedup", "--samples", str(N)) == 0
        assert "ops/cycle" in capsys.readouterr().out

    def test_run_verifies(self, capsys):
        assert self.invoke("run", "SQRT32", "--design", "with-sync",
                           "--samples", str(N)) == 0
        assert "matches" in capsys.readouterr().out

    def test_listing(self, capsys):
        assert self.invoke("listing", "SQRT32") == 0
        out = capsys.readouterr().out
        assert "SINC" in out

    def test_listing_baseline_has_no_sync(self, capsys):
        assert self.invoke("listing", "SQRT32", "--baseline") == 0
        assert "SINC" not in capsys.readouterr().out

    def test_calibrate(self, capsys):
        assert self.invoke("calibrate", "--samples", "8") == 0
        out = capsys.readouterr().out
        assert "energy fit residual" in out
        assert "voltage fit residual" in out

    def test_import_leaves_scipy_unloaded(self):
        """Only ``repro calibrate`` fits anything, so importing the
        package and its CLI must not pay for SciPy."""
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))))
        probe = ("import sys, repro, repro.cli; "
                 "print(sorted(m for m in sys.modules "
                 "if m.split('.')[0] == 'scipy'))")
        result = subprocess.run([sys.executable, "-c", probe], env=env,
                                capture_output=True, text=True, timeout=60)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"
