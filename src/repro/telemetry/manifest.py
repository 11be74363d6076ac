"""Sweep run manifests: structured, replayable records of fan-outs.

A sweep that prints progress lines and exits leaves nothing behind to
audit — which runs were cache hits, which worker executed what, whether
a digest changed between two sweeps.  :class:`SweepManifestWriter` fixes
that with two artifacts per sweep directory:

``runs.jsonl``
    One JSON line per run outcome, **written as each run completes** (and
    flushed), so a killed sweep still leaves a usable log.  Each line
    carries the request identity (label, benchmark, design, samples,
    content digest), the outcome (cached / error / golden match), the
    execution bookkeeping (elapsed seconds, worker pid) and a telemetry
    summary derived from the run's activity trace.

``manifest.json``
    Written once at :meth:`~SweepManifestWriter.finalize`, atomically
    (temp file + rename): schema version, sweep name, run counts, the
    executor's throughput metrics
    (:meth:`SweepMetrics.as_dict <repro.exec.progress.SweepMetrics.as_dict>`),
    its per-phase wall and CPU seconds and aggregate telemetry across
    successful runs.

``python -m repro stats <dir>`` renders either artifact
(:func:`summarize_manifest`); :func:`load_manifest` returns them parsed.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

#: manifest / runs.jsonl schema; bump on incompatible layout changes
#: (2: telemetry rows carry fast-engine counters — fused blocks/cycles,
#: deopts — when the payload recorded them)
#: (3: telemetry rows carry the array-of-machines batch counters —
#: batched_runs, vector width/cycles, peels — when the payload recorded
#: them)
#: (4: rows carry ``deduped``/``coalesced`` origin flags and the
#: manifest counts them, so in-sweep dedup and service-level in-flight
#: coalescing are distinguishable from cache hits)
#: (5: rows and totals carry the memory-fusion counters —
#: ``mem_fused_blocks``/``mem_fused_ops`` — the block-termination
#: census ``term_*``, and the barrier fast-path count
#: ``sync_fused_rmws`` when the payload recorded them)
#: (6: rows carry the ``cache_tier`` that served a hit; the manifest
#: may carry a ``trace_id`` (service jobs) and a ``profile`` section
#: (per-phase wall/CPU timings and top-N run self-time, ``--profile``))
#: (7: rows and totals drop ``mem_fused_blocks``/``mem_fused_ops`` and
#: ``term_guard``: superblocks no longer fuse LD/STs)
#: (8: rows carry their ``source``; every manifest carries a ``phases``
#: section — the executor's wall/CPU seconds per phase — in place of the
#: opt-in ``profile`` section)
MANIFEST_SCHEMA = 8

#: rows each of the ``repro stats`` top-runs tables keeps
TOP_ROWS = 10


def telemetry_summary(payload: dict | None) -> dict | None:
    """Per-run telemetry digest from an execution payload's trace.

    Pulls the headline counters straight out of the serialized
    :class:`~repro.platform.trace.ActivityTrace` so manifest readers
    never need to reconstruct a run to answer "how many cycles / how
    much sync wait / what lockstep rate".
    """
    trace_dict = ((payload or {}).get("run") or {}).get("trace")
    if not trace_dict:
        return None
    from ..platform.trace import ActivityTrace

    trace = ActivityTrace.from_dict(trace_dict)
    summary = {
        "cycles": trace.cycles,
        "retired_ops": trace.retired_ops,
        "ops_per_cycle": round(trace.retired_ops / trace.cycles, 6)
        if trace.cycles else 0.0,
        "lockstep_fraction": round(trace.lockstep_fraction, 6),
        "sync_wait_cycles": trace.sync_wait_cycles,
        "sync_wakeups": trace.sync_wakeups,
        "im_bank_accesses": trace.im_bank_accesses,
        "dm_conflict_cycles": trace.dm_conflict_cycles,
    }
    engine = (payload or {}).get("engine")
    if engine:
        # fast-engine engagement digest (schema 2 payloads onward)
        summary["fast_cycles"] = engine.get("fast_cycles", 0)
        summary["fused_blocks"] = engine.get("fused_blocks", 0)
        summary["fused_cycles"] = engine.get("fused_cycles", 0)
        summary["deopt_count"] = engine.get("deopt_count", 0)
        # array-of-machines batch digest (schema 3 payloads onward)
        summary["batched_runs"] = engine.get("batched_runs", 0)
        summary["vector_width"] = engine.get("vector_width", 0)
        summary["vector_cycles"] = engine.get("vector_cycles", 0)
        summary["peel_count"] = engine.get("peel_count", 0)
        # barrier replays and the block-termination census
        summary["sync_fused_rmws"] = engine.get("sync_fused_rmws", 0)
        for reason in ("mem", "sync", "stop", "diverge", "cap"):
            key = "term_" + reason
            summary[key] = engine.get(key, 0)
    return summary


def outcome_record(outcome) -> dict:
    """The ``runs.jsonl`` row for one :class:`RunOutcome` (stable keys)."""
    request = outcome.request
    return {
        "index": outcome.index,
        "label": request.label,
        "benchmark": request.benchmark,
        "design": request.design.name,
        "n_samples": request.n_samples,
        "digest": outcome.digest,
        "source": outcome.source,
        "cached": outcome.cached,
        "cache_tier": outcome.cache_tier,
        "deduped": outcome.deduped,
        "coalesced": outcome.coalesced,
        "error": outcome.error,
        "elapsed": outcome.elapsed,
        "worker": outcome.worker,
        "golden_match": outcome.golden_match,
        "sync_points": outcome.sync_points,
        "telemetry": telemetry_summary(outcome.payload),
    }


class SweepManifestWriter:
    """Streams ``runs.jsonl`` rows and finalizes ``manifest.json``.

    Pass one to :meth:`SweepExecutor.run
    <repro.exec.scheduler.SweepExecutor.run>` via its ``manifest``
    argument; the scheduler notes every outcome as it lands and
    finalizes on completion.  Usable standalone for custom drivers.
    """

    def __init__(self, directory, *, name: str = "sweep"):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.name = name
        self.runs_path = self.directory / "runs.jsonl"
        self.manifest_path = self.directory / "manifest.json"
        self._rows = 0
        self._handle = open(self.runs_path, "w", encoding="utf-8")
        #: the :class:`~repro.exec.progress.SweepMetrics` the manifest
        #: was finalized with (``None`` until then)
        self.metrics = None

    def note_outcome(self, outcome) -> dict:
        """Append one outcome row (flushed immediately); returns the row."""
        row = outcome_record(outcome)
        self._handle.write(json.dumps(row, sort_keys=True) + "\n")
        self._handle.flush()
        self._rows += 1
        return row

    def finalize(self, *, metrics=None, cache=None, spec=None,
                 trace_id=None) -> Path:
        """Write ``manifest.json`` atomically; returns its path.

        :param metrics: the sweep's :class:`~repro.exec.progress.SweepMetrics`;
            its phase timings become the ``"phases"`` section.
        :param trace_id: optional request trace id (``repro sweep`` and
            service jobs), so a manifest on disk can be joined back to
            its span tree and log lines.
        """
        self.close()
        self.metrics = metrics
        rows = _read_jsonl(self.runs_path)
        telemetry = [row["telemetry"] for row in rows if row.get("telemetry")]
        tiers: dict[str, int] = {}
        for row in rows:
            if row.get("cached"):
                tier = row.get("cache_tier") or "unknown"
                tiers[tier] = tiers.get(tier, 0) + 1
        manifest = {
            "schema": MANIFEST_SCHEMA,
            "name": self.name,
            "runs_file": self.runs_path.name,
            "runs": len(rows),
            "ok": sum(1 for row in rows if row["error"] is None),
            "failed": sum(1 for row in rows if row["error"] is not None),
            "cached": sum(1 for row in rows if row["cached"]),
            "cache_tiers": dict(sorted(tiers.items())),
            "deduped": sum(1 for row in rows if row.get("deduped")),
            "coalesced": sum(1 for row in rows if row.get("coalesced")),
            "golden_mismatches": sum(
                1 for row in rows if row["golden_match"] is False),
            "metrics": metrics.as_dict() if metrics is not None else None,
            "phases": _round_phases(metrics.phases if metrics is not None
                                    else {}),
            "spec": getattr(spec, "name", spec),
            "cache": type(cache).__name__ if cache is not None else None,
            "telemetry_totals": _aggregate_telemetry(telemetry),
        }
        if trace_id is not None:
            manifest["trace_id"] = trace_id
        scratch = self.manifest_path.with_suffix(".json.tmp")
        with open(scratch, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle, indent=2, sort_keys=True)
            handle.write("\n")
        os.replace(scratch, self.manifest_path)
        return self.manifest_path

    def close(self) -> None:
        """Close the ``runs.jsonl`` stream without writing a manifest
        (idempotent): :meth:`finalize` calls it, and so does a driver
        whose sweep failed before it could finalize."""
        self._handle.close()

    def __enter__(self) -> "SweepManifestWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        if not self._handle.closed:
            self.finalize()


def _round_phases(phases: dict) -> dict:
    return {name: {key: round(seconds, 6) for key, seconds in timing.items()}
            for name, timing in phases.items()}


def top_runs(rows: list[dict], top: int = TOP_ROWS) -> list[dict]:
    """The ``top`` slowest executed rows by their own wall seconds.

    Only rows whose ``source`` is ``executed`` rank: a cache hit or a
    slot that rode another run's simulation has no run time of its own.
    """
    ranked = []
    for row in rows:
        if row.get("source") != "executed":
            continue
        telemetry = row.get("telemetry") or {}
        ranked.append({"label": row.get("label", "?"),
                       "elapsed": row.get("elapsed") or 0.0,
                       "cycles": telemetry.get("cycles", 0)})
    return sorted(ranked, key=lambda r: -r["elapsed"])[:top]


def top_fused(rows: list[dict], top: int = TOP_ROWS) -> list[dict]:
    """The ``top`` executed rows by cycles spent in fused superblocks,
    each with its fused share of the run's cycles; unfused rows skip."""
    ranked = []
    for row in rows:
        telemetry = row.get("telemetry") or {}
        fused = telemetry.get("fused_cycles", 0)
        if row.get("source") != "executed" or not fused:
            continue
        cycles = telemetry.get("cycles", 0)
        ranked.append({"label": row.get("label", "?"),
                       "fused_cycles": fused,
                       "fused_blocks": telemetry.get("fused_blocks", 0),
                       "fused_share": round(fused / cycles, 4)
                       if cycles else 0.0})
    return sorted(ranked, key=lambda r: -r["fused_cycles"])[:top]


def _aggregate_telemetry(summaries: list[dict]) -> dict | None:
    """Sums across per-run telemetry digests (counters only)."""
    if not summaries:
        return None
    keys = ("cycles", "retired_ops", "sync_wait_cycles", "sync_wakeups",
            "im_bank_accesses", "dm_conflict_cycles", "fast_cycles",
            "fused_blocks", "fused_cycles", "deopt_count",
            "vector_cycles", "peel_count", "sync_fused_rmws",
            "term_mem", "term_sync", "term_stop", "term_diverge",
            "term_cap")
    return {key: sum(s.get(key, 0) for s in summaries) for key in keys}


def _read_jsonl(path: Path) -> list[dict]:
    rows = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                rows.append(json.loads(line))
    return rows


def load_manifest(path) -> tuple[dict | None, list[dict]]:
    """Load a sweep directory (or one of its files).

    :param path: a sweep directory, its ``manifest.json``, or a bare
        ``runs.jsonl`` (e.g. from a sweep that was killed mid-flight).
    :returns: ``(manifest, rows)``; ``manifest`` is ``None`` when only
        the run log exists.
    """
    path = Path(path)
    if path.is_dir():
        manifest_path = path / "manifest.json"
        runs_path = path / "runs.jsonl"
    elif path.name.endswith(".jsonl"):
        manifest_path = path.parent / "manifest.json"
        runs_path = path
    else:
        manifest_path = path
        runs_path = path.parent / "runs.jsonl"
    manifest = None
    if manifest_path.is_file():
        with open(manifest_path, encoding="utf-8") as handle:
            manifest = json.load(handle)
    rows = _read_jsonl(runs_path) if runs_path.is_file() else []
    if manifest is None and not rows:
        raise FileNotFoundError(
            f"no manifest.json or runs.jsonl at {path}")
    return manifest, rows


def summarize_manifest(path) -> str:
    """Human-readable sweep digest for ``python -m repro stats``."""
    from ..exec.progress import SOURCE_LABELS

    manifest, rows = load_manifest(path)
    lines = []
    if manifest is not None:
        lines.append(
            f"sweep {manifest['name']!r}: {manifest['runs']} runs — "
            f"{manifest['ok']} ok, {manifest['failed']} failed, "
            f"{manifest['cached']} cached")
        if manifest.get("deduped") or manifest.get("coalesced"):
            lines.append(
                f"  coalescing: {manifest.get('deduped', 0)} deduped "
                f"in-sweep, {manifest.get('coalesced', 0)} joined "
                "in-flight runs")
        tiers = manifest.get("cache_tiers") or {}
        if tiers and set(tiers) != {"unknown"}:
            cells = [f"{tier} {count}"
                     for tier, count in sorted(tiers.items())]
            lines.append("  cache tiers: " + ", ".join(cells))
        metrics = manifest.get("metrics") or {}
        if metrics:
            lines.append(
                f"  {metrics.get('wall_seconds', 0.0):.2f}s wall, "
                f"{metrics.get('runs_per_second', 0.0):.2f} runs/s, "
                f"cache hit rate {metrics.get('hit_rate', 0.0):.0%}")
        if manifest.get("trace_id"):
            lines.append(f"  trace_id: {manifest['trace_id']}")
        phases = manifest.get("phases") or {}
        if phases:
            cells = [f"{name} {timing['wall_seconds']:.3f}s wall "
                     f"{timing['cpu_seconds']:.3f}s cpu"
                     for name, timing in phases.items()]
            lines.append("  phases: " + ", ".join(cells))
        totals = manifest.get("telemetry_totals")
        if totals:
            lines.append(
                f"  simulated {totals['cycles']} cycles, "
                f"{totals['retired_ops']} ops, "
                f"{totals['sync_wait_cycles']} sync-wait cycles, "
                f"{totals['im_bank_accesses']} IM bank accesses")
            if totals.get("fast_cycles"):
                lines.append(
                    f"  fast engine: {totals['fast_cycles']} fast cycles, "
                    f"{totals['cycles'] - totals['fast_cycles']} step() "
                    f"cycles, {totals['fused_cycles']} fused over "
                    f"{totals['fused_blocks']} superblocks, "
                    f"{totals['deopt_count']} deopts")
            if totals.get("sync_fused_rmws"):
                lines.append(
                    f"  barrier fast path: {totals['sync_fused_rmws']} "
                    "merged checkpoint RMWs replayed by the lockstep and "
                    "divergent bursts or the batch engine without step()")
            if totals.get("vector_cycles"):
                lines.append(
                    f"  vectorized: {totals['vector_cycles']} batched "
                    f"cycles, {totals['peel_count']} peels")
    else:
        lines.append(f"(no manifest.json — {len(rows)} rows from runs.jsonl)")
    if rows:
        lines.append("")
        lines.append(f"{'run':>4s}  {'outcome':7s}  {'cycles':>10s}  "
                     f"{'ops/cyc':>7s}  {'lockstep':>8s}  {'wait':>8s}  "
                     "label")
        for row in rows:
            outcome = SOURCE_LABELS.get(row.get("source"), "?")
            telemetry = row.get("telemetry") or {}
            cycles = telemetry.get("cycles")
            lines.append(
                f"{row['index']:4d}  {outcome:7s}  "
                f"{cycles if cycles is not None else '-':>10}  "
                f"{telemetry.get('ops_per_cycle', '-'):>7}  "
                f"{telemetry.get('lockstep_fraction', '-'):>8}  "
                f"{telemetry.get('sync_wait_cycles', '-'):>8}  "
                f"{row['label']}")
        failures = [row for row in rows if row["error"]]
        for row in failures:
            lines.append(f"  run {row['index']} error: {row['error']}")
    slowest = top_runs(rows)
    if slowest:
        lines.append("")
        lines.append(f"top {len(slowest)} executed runs by self-time:")
        for row in slowest:
            lines.append(f"  {row['elapsed']:8.3f}s  {row['cycles']:>9d} "
                         f"cycles  {row['label']}")
    fused = top_fused(rows)
    if fused:
        lines.append("")
        lines.append(f"top {len(fused)} executed runs by fused-block "
                     "cycles:")
        for row in fused:
            lines.append(f"  {row['fused_cycles']:>9d} fused cycles "
                         f"({row['fused_share']:.0%} of run) over "
                         f"{row['fused_blocks']} blocks  {row['label']}")
    return "\n".join(lines)
