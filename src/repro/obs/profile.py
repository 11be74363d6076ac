"""Opt-in execution profiling for sweeps (``--profile``).

When enabled, the executor times each of its phases (digest, cache,
execute) in wall *and* CPU seconds and collects per-run self-time rows,
including the fused-block counters the fast engine reports — so "where
did this sweep spend its time" is answerable from the manifest alone:
:meth:`ExecProfile.as_dict` is folded into ``manifest.json`` under
``"profile"`` and summarized by ``repro obs <dir>``.

Profiling is strictly off-path: nothing here runs unless ``--profile``
was passed, and the collection itself is a handful of clock reads per
phase plus one small record per executed run.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class PhaseTiming:
    """Wall and CPU seconds of one executor phase."""

    name: str
    wall_seconds: float
    cpu_seconds: float

    def as_dict(self) -> dict:
        return {"wall_seconds": round(self.wall_seconds, 6),
                "cpu_seconds": round(self.cpu_seconds, 6)}


@dataclass
class ExecProfile:
    """Per-phase timings plus top-N run self-time for one sweep.

    :ivar top: how many rows the ``top_runs`` / ``top_fused`` tables
        keep (sorted by elapsed seconds and fused-block self-cycles
        respectively).
    """

    top: int = 10
    phases: list[PhaseTiming] = field(default_factory=list)
    runs: list[dict] = field(default_factory=list)

    @contextmanager
    def phase(self, name: str):
        """Time one named phase (wall + CPU)."""
        wall0 = time.perf_counter()
        cpu0 = time.process_time()
        try:
            yield
        finally:
            self.phases.append(PhaseTiming(
                name, time.perf_counter() - wall0,
                time.process_time() - cpu0))

    def note_run(self, label: str, payload: dict | None) -> None:
        """Record one executed run's self-time and engine counters."""
        payload = payload or {}
        engine = payload.get("engine") or {}
        self.runs.append({
            "label": label,
            "elapsed": round(payload.get("elapsed", 0.0), 6),
            "cycles": ((payload.get("run") or {}).get("trace") or {}
                       ).get("cycles", 0),
            "fused_blocks": engine.get("fused_blocks", 0),
            "fused_cycles": engine.get("fused_cycles", 0),
        })

    # -- derived ---------------------------------------------------------

    def top_runs(self) -> list[dict]:
        """The ``top`` slowest executed runs by wall seconds."""
        return sorted(self.runs, key=lambda row: -row["elapsed"])[:self.top]

    def top_fused(self) -> list[dict]:
        """The ``top`` runs by fused-block self-time (cycles spent
        inside fused superblocks), with each run's fused share."""
        rows = []
        for row in self.runs:
            if not row["fused_cycles"]:
                continue
            cycles = row["cycles"] or 0
            rows.append({
                "label": row["label"],
                "fused_cycles": row["fused_cycles"],
                "fused_blocks": row["fused_blocks"],
                "fused_share": (round(row["fused_cycles"] / cycles, 4)
                                if cycles else 0.0),
            })
        return sorted(rows, key=lambda r: -r["fused_cycles"])[:self.top]

    def as_dict(self) -> dict:
        """The manifest's ``"profile"`` section."""
        return {
            "phases": {timing.name: timing.as_dict()
                       for timing in self.phases},
            "runs_profiled": len(self.runs),
            "top_runs": self.top_runs(),
            "top_fused": self.top_fused(),
        }

    def report(self) -> str:
        """Human-readable summary (``--profile`` console output and
        ``repro obs``)."""
        lines = ["profile:"]
        for timing in self.phases:
            lines.append(f"  phase {timing.name:8s} "
                         f"{timing.wall_seconds:8.3f}s wall  "
                         f"{timing.cpu_seconds:8.3f}s cpu")
        top = self.top_runs()
        if top:
            lines.append(f"  top {len(top)} runs by self-time:")
            for row in top:
                lines.append(f"    {row['elapsed']:8.3f}s  "
                             f"{row['cycles']:>9d} cycles  {row['label']}")
        fused = self.top_fused()
        if fused:
            lines.append(f"  top {len(fused)} runs by fused-block "
                         "self-time:")
            for row in fused:
                lines.append(
                    f"    {row['fused_cycles']:>9d} fused cycles "
                    f"({row['fused_share']:.0%} of run) over "
                    f"{row['fused_blocks']} blocks  {row['label']}")
        return "\n".join(lines)


def profile_from_dict(doc: dict | None) -> ExecProfile | None:
    """Rehydrate a manifest ``"profile"`` section (for ``repro obs``)."""
    if not doc:
        return None
    profile = ExecProfile()
    for name, timing in (doc.get("phases") or {}).items():
        profile.phases.append(PhaseTiming(
            name, timing.get("wall_seconds", 0.0),
            timing.get("cpu_seconds", 0.0)))
    for row in doc.get("top_runs") or []:
        profile.runs.append({
            "label": row.get("label", "?"),
            "elapsed": row.get("elapsed", 0.0),
            "cycles": row.get("cycles", 0),
            "fused_blocks": row.get("fused_blocks", 0),
            "fused_cycles": row.get("fused_cycles", 0),
        })
    return profile
