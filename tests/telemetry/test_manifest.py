"""Sweep manifests: runs.jsonl streaming, manifest.json, stats rendering."""

import json

import pytest

from repro.cli import main
from repro.exec import MemoryCache, SweepExecutor, SweepSpec
from repro.kernels import WITH_SYNC, WITHOUT_SYNC
from repro.telemetry import (
    SweepManifestWriter,
    load_manifest,
    summarize_manifest,
)
from repro.telemetry.manifest import MANIFEST_SCHEMA, top_fused, top_runs


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

    def test_close_is_idempotent(self, tmp_path):
        """A driver whose sweep failed closes the runs log without a
        manifest; closing again, or finalizing later, is harmless."""
        writer = SweepManifestWriter(tmp_path / "out")
        writer.close()
        writer.close()
        assert not writer.manifest_path.exists()
        manifest, rows = load_manifest(writer.finalize())
        assert manifest["runs"] == 0 and rows == []

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


class TestTraceId:
    def test_repro_sweep_manifest_carries_its_trace_id(self, tmp_path,
                                                       monkeypatch, capsys):
        passed = []
        real_run = SweepExecutor.run

        def spy(self, requests, **kwargs):
            passed.append(kwargs.get("trace_id"))
            return real_run(self, requests, **kwargs)

        monkeypatch.setattr(SweepExecutor, "run", spy)
        assert main(["sweep", "--quick", "--benchmarks", "SQRT32",
                     "--designs", "with-sync", "--samples", "8",
                     "--no-cache", "--manifest", str(tmp_path)]) == 0
        manifest, _ = load_manifest(tmp_path)
        (trace_id,) = passed
        assert trace_id and manifest["trace_id"] == trace_id
        assert f"trace_id: {trace_id}" in summarize_manifest(tmp_path)


class TestMemoryFusionColumns:
    def test_totals_and_summary_carry_mem_fusion(self, sweep_dir):
        """The totals carry the barrier replays and the block-termination
        census; superblocks fuse no LD/ST, so no memory-fusion keys."""
        directory, _ = sweep_dir
        manifest = json.loads((directory / "manifest.json").read_text())
        totals = manifest["telemetry_totals"]
        for key in ("sync_fused_rmws", "term_mem", "term_sync",
                    "term_stop", "term_diverge", "term_cap"):
            assert key in totals
        for key in ("mem_fused_blocks", "mem_fused_ops", "term_guard"):
            assert key not in totals
        # every LD/ST ends a block, so the bundled kernels' blocks end at
        # memory ops and control flow
        assert totals["term_mem"] > 0
        assert totals["term_stop"] + totals["term_diverge"] > 0
        text = summarize_manifest(directory)
        assert "memory fusion:" not in text
        assert "fast engine:" in text


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


def row(label, source="executed", elapsed=0.0, cycles=1000, fused_cycles=0,
        fused_blocks=0):
    return {"index": 0, "label": label, "source": source, "error": None,
            "elapsed": elapsed,
            "telemetry": {"cycles": cycles, "fused_cycles": fused_cycles,
                          "fused_blocks": fused_blocks}}


class TestPhases:
    def test_phase_records_wall_and_cpu(self, sweep_dir):
        """Every sweep times its phases, with no flag to turn it on."""
        directory, _ = sweep_dir
        phases = json.loads(
            (directory / "manifest.json").read_text())["phases"]
        assert set(phases) == {"digest", "cache", "execute"}
        for timing in phases.values():
            assert set(timing) == {"wall_seconds", "cpu_seconds"}
            assert timing["wall_seconds"] >= 0
            assert timing["cpu_seconds"] >= 0
        # the simulations happen in the execute phase
        assert phases["execute"]["wall_seconds"] > 0

    def test_manifest_phases_round_trip_through_load_manifest(self,
                                                              tmp_path):
        spec = small_spec()
        writer = SweepManifestWriter(tmp_path / "out", name=spec.name)
        with SweepExecutor(jobs=0, cache=MemoryCache()) as executor:
            executor.run(spec, manifest=writer)
        manifest, _ = load_manifest(tmp_path / "out")
        timed = executor.last_metrics.phases
        assert manifest["phases"] == {
            name: {key: round(seconds, 6) for key, seconds in t.items()}
            for name, t in timed.items()}

    def test_stats_without_phases_section(self, tmp_path, sweep_dir):
        """A bare runs.jsonl has no phases line but still ranks runs."""
        directory, _ = sweep_dir
        orphan = tmp_path / "orphan"
        orphan.mkdir()
        (orphan / "runs.jsonl").write_text(
            (directory / "runs.jsonl").read_text())
        text = summarize_manifest(orphan)
        assert "phases:" not in text
        assert "executed runs by self-time" in text


class TestTopRuns:
    def test_top_runs_sorted_by_elapsed(self):
        rows = [row("slow", elapsed=3.0), row("fast", elapsed=0.1),
                row("mid", elapsed=1.0),
                # no run time of their own: never ranked
                row("hit", source="cache", elapsed=9.0),
                row("dup", source="deduped", elapsed=9.0),
                row("join", source="coalesced", elapsed=9.0)]
        assert [r["label"] for r in top_runs(rows, top=2)] == \
            ["slow", "mid"]

    def test_top_fused_skips_unfused_and_computes_share(self):
        rows = [row("fused", fused_cycles=500, fused_blocks=3),
                row("plain"),
                row("cached", source="cache", fused_cycles=900)]
        (fused,) = top_fused(rows)
        assert fused["label"] == "fused"
        assert fused["fused_share"] == 0.5
        assert fused["fused_blocks"] == 3

    def test_top_runs_tolerate_sparse_rows(self):
        rows = [{"label": "sparse", "source": "executed",
                 "telemetry": None},
                {"label": "partial", "source": "executed", "elapsed": 0.5},
                {"source": "executed", "elapsed": None}]
        ranked = top_runs(rows)
        assert [r["label"] for r in ranked] == ["partial", "sparse", "?"]
        assert ranked[1]["cycles"] == 0
        assert top_fused(rows) == []

    def test_stats_prints_phases_and_top_tables(self, tmp_path):
        writer = SweepManifestWriter(tmp_path / "out", name="tables")
        with SweepExecutor(jobs=0, cache=MemoryCache()) as executor:
            outcomes = executor.run(small_spec(), manifest=writer)
        text = summarize_manifest(tmp_path / "out")
        (phases,) = [line for line in text.splitlines()
                     if line.startswith("  phases: ")]
        for name in ("digest", "cache", "execute"):
            assert f"{name} " in phases
        assert "s wall" in phases and "s cpu" in phases
        assert f"top {len(outcomes)} executed runs by self-time:" in text
        rows = [json.loads(line) for line in
                (tmp_path / "out" / "runs.jsonl").read_text().splitlines()]
        # the with-sync kernels run in lockstep, so some runs fuse
        assert top_fused(rows)
        assert f"top {len(top_fused(rows))} executed runs by fused-block " \
            "cycles:" in text

    def test_stats_prints_each_fused_run_with_its_share(self, tmp_path):
        rows = [row("fused", fused_cycles=500, fused_blocks=3),
                row("plain"),
                row("cached", source="cache", fused_cycles=900)]
        (tmp_path / "runs.jsonl").write_text(
            "".join(json.dumps(r) + "\n" for r in rows))
        lines = summarize_manifest(tmp_path).splitlines()
        at = lines.index("top 1 executed runs by fused-block cycles:")
        assert lines[at + 1:] == [
            "        500 fused cycles (50% of run) over 3 blocks  fused"]
