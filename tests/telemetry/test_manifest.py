"""Sweep manifests: runs.jsonl streaming, manifest.json, stats rendering."""

import json

import pytest

from repro.exec import MemoryCache, SweepExecutor, SweepSpec
from repro.kernels import WITH_SYNC, WITHOUT_SYNC
from repro.telemetry import (
    SweepManifestWriter,
    load_manifest,
    summarize_manifest,
)
from repro.telemetry.manifest import MANIFEST_SCHEMA


def small_spec() -> SweepSpec:
    return SweepSpec.grid("unit", ("SQRT32", "MRPDLN"),
                          (WITH_SYNC, WITHOUT_SYNC), samples=(8,),
                          num_cores=2)


@pytest.fixture()
def sweep_dir(tmp_path):
    spec = small_spec()
    writer = SweepManifestWriter(tmp_path / "out", name=spec.name)
    with SweepExecutor(jobs=0, cache=MemoryCache()) as executor:
        outcomes = executor.run(spec, manifest=writer)
    return tmp_path / "out", outcomes


class TestManifestWriter:
    def test_one_jsonl_row_per_outcome(self, sweep_dir):
        directory, outcomes = sweep_dir
        rows = [json.loads(line) for line in
                (directory / "runs.jsonl").read_text().splitlines()]
        assert len(rows) == len(outcomes)
        assert [row["index"] for row in rows] == sorted(
            row["index"] for row in rows)
        for row, outcome in zip(rows, outcomes):
            assert row["digest"] == outcome.digest
            assert row["label"] == outcome.request.label
            assert row["error"] is None
            assert row["telemetry"]["cycles"] > 0

    def test_manifest_counts_and_schema(self, sweep_dir):
        directory, outcomes = sweep_dir
        manifest = json.loads((directory / "manifest.json").read_text())
        assert manifest["schema"] == MANIFEST_SCHEMA
        assert manifest["runs"] == len(outcomes)
        assert manifest["ok"] == len(outcomes)
        assert manifest["failed"] == 0
        assert manifest["metrics"]["runs_per_second"] >= 0
        totals = manifest["telemetry_totals"]
        assert totals["cycles"] == sum(
            json.loads(line)["telemetry"]["cycles"] for line in
            (directory / "runs.jsonl").read_text().splitlines())

    def test_second_sweep_records_cache_hits(self, tmp_path):
        spec = small_spec()
        cache = MemoryCache()
        with SweepExecutor(jobs=0, cache=cache) as executor:
            executor.run(spec, manifest=SweepManifestWriter(
                tmp_path / "cold", name=spec.name))
            executor.run(spec, manifest=SweepManifestWriter(
                tmp_path / "warm", name=spec.name))
        warm, _ = load_manifest(tmp_path / "warm")
        assert warm["cached"] == warm["runs"]
        # cached rows still carry telemetry from the cached payload
        _, rows = load_manifest(tmp_path / "warm" / "runs.jsonl")
        assert all(row["cached"] and row["telemetry"] for row in rows)


class TestLoadAndSummarize:
    def test_load_accepts_dir_manifest_or_jsonl(self, sweep_dir):
        directory, _ = sweep_dir
        for target in (directory, directory / "manifest.json",
                       directory / "runs.jsonl"):
            manifest, rows = load_manifest(target)
            assert manifest is not None and rows

    def test_load_runs_log_without_manifest(self, tmp_path, sweep_dir):
        directory, _ = sweep_dir
        orphan = tmp_path / "orphan"
        orphan.mkdir()
        (orphan / "runs.jsonl").write_text(
            (directory / "runs.jsonl").read_text())
        manifest, rows = load_manifest(orphan)
        assert manifest is None and rows

    def test_load_missing_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_manifest(tmp_path / "nowhere")

    def test_summary_text(self, sweep_dir):
        directory, outcomes = sweep_dir
        text = summarize_manifest(directory)
        assert f"{len(outcomes)} runs" in text
        assert "cache hit rate" in text
        for outcome in outcomes:
            assert outcome.request.label in text
        # what step() still ran, next to the fast-path breakdown
        totals = json.loads(
            (directory / "manifest.json").read_text())["telemetry_totals"]
        step_cycles = totals["cycles"] - totals["fast_cycles"]
        assert 0 <= step_cycles < totals["cycles"]
        assert f"{step_cycles} step() cycles" in text


class TestMemoryFusionColumns:
    def test_totals_and_summary_carry_mem_fusion(self, sweep_dir):
        directory, _ = sweep_dir
        manifest = json.loads((directory / "manifest.json").read_text())
        totals = manifest["telemetry_totals"]
        for key in ("mem_fused_blocks", "mem_fused_ops",
                    "sync_fused_rmws", "term_mem", "term_sync",
                    "term_stop", "term_diverge", "term_cap",
                    "term_guard"):
            assert key in totals
        # the bundled kernels carry compiler uniformity facts, so the
        # sweep must have committed at least one statically-fused LD/ST
        assert totals["mem_fused_blocks"] > 0
        assert totals["mem_fused_ops"] >= totals["mem_fused_blocks"]
        assert totals["term_stop"] + totals["term_diverge"] > 0
        text = summarize_manifest(directory)
        assert "memory fusion:" in text


class TestCoalescingColumns:
    def test_rows_and_counts_carry_dedup_and_coalesced(self, tmp_path):
        from repro.exec import RunRequest

        request = RunRequest("SQRT32", WITH_SYNC, n_samples=8, num_cores=2)
        spec = SweepSpec("dups", (request, request, request))
        writer = SweepManifestWriter(tmp_path / "out", name=spec.name)
        with SweepExecutor(jobs=0, cache=MemoryCache()) as executor:
            executor.run(spec, manifest=writer)
        rows = [json.loads(line) for line in
                (tmp_path / "out" / "runs.jsonl").read_text().splitlines()]
        assert [row["deduped"] for row in rows] == [False, True, True]
        assert all(row["coalesced"] is False for row in rows)
        manifest = json.loads(
            (tmp_path / "out" / "manifest.json").read_text())
        assert manifest["deduped"] == 2
        assert manifest["coalesced"] == 0
        summary = summarize_manifest(tmp_path / "out")
        assert "dup" in summary
        assert "2 deduped" in summary
