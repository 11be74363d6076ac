"""Progress and throughput reporting for sweep executions.

The scheduler drives one :class:`SweepMetrics` per sweep: every
finished run's :class:`~repro.exec.scheduler.RunOutcome` is noted, each
executor phase is timed into it, and :meth:`SweepMetrics.report`
renders the numbers an operator wants while a fan-out is running —
runs/s, cache hit rate and per-worker utilization (busy seconds over
sweep wall-clock).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

#: display label of each run source (:attr:`RunOutcome.source
#: <repro.exec.scheduler.RunOutcome.source>`, the ``source`` of
#: ``runs.jsonl`` and job-resource rows)
SOURCE_LABELS = {"error": "FAIL", "cache": "hit", "coalesced": "join",
                 "deduped": "dup", "executed": "run"}


@dataclass
class SweepMetrics:
    """Aggregate throughput accounting for one sweep execution.

    All timing is monotonic-clock based and safe to read **mid-flight**:
    :attr:`wall_seconds` (and everything derived from it — runs/s,
    worker utilization, :meth:`report`) measures elapsed time live until
    :meth:`finish` freezes it, so progress displays and the manifest
    writer can snapshot the metrics while the sweep is still running.

    :ivar records: every noted
        :class:`~repro.exec.scheduler.RunOutcome`, in landing order.
    :ivar phases: executor phase name -> ``{"wall_seconds",
        "cpu_seconds"}``; a phase timed more than once adds up.
    """

    total: int = 0
    records: list = field(default_factory=list)
    phases: dict[str, dict[str, float]] = field(default_factory=dict)
    _started: float = field(default_factory=time.monotonic)
    _finished: float | None = None

    def note(self, outcome) -> None:
        """Tally one :class:`~repro.exec.scheduler.RunOutcome`."""
        self.records.append(outcome)

    def note_phase(self, name: str, wall_seconds: float,
                   cpu_seconds: float) -> None:
        """Add one timed phase's wall and CPU seconds."""
        timing = self.phases.setdefault(
            name, {"wall_seconds": 0.0, "cpu_seconds": 0.0})
        timing["wall_seconds"] += wall_seconds
        timing["cpu_seconds"] += cpu_seconds

    def finish(self) -> None:
        """Freeze the sweep wall-clock (idempotent)."""
        if self._finished is None:
            self._finished = time.monotonic()

    # -- derived ---------------------------------------------------------

    @property
    def wall_seconds(self) -> float:
        end = self._finished if self._finished is not None else time.monotonic()
        return end - self._started

    @property
    def completed(self) -> int:
        return len(self.records)

    @property
    def cache_hits(self) -> int:
        return sum(r.cached for r in self.records)

    @property
    def executed(self) -> int:
        return sum(not r.cached for r in self.records)

    @property
    def failures(self) -> int:
        return sum(r.error is not None for r in self.records)

    @property
    def dedup_hits(self) -> int:
        """Runs that rode an identical in-sweep request's simulation.

        Distinct from :attr:`cache_hits` (served from a stored result)
        and counted inside :attr:`executed` — a deduped slot reports as
        executed but carries no execution time of its own.
        """
        return sum(r.deduped for r in self.records)

    @property
    def coalesced_hits(self) -> int:
        """Runs served by another submission's in-flight simulation."""
        return sum(r.coalesced for r in self.records)

    @property
    def hit_rate(self) -> float:
        return self.cache_hits / self.completed if self.completed else 0.0

    def cache_tiers(self) -> dict[str, int]:
        """Cache hits broken out by the tier that served them.

        Unnamed tiers (plain caches predating tier labels) count under
        ``"unknown"`` so the totals still reconcile with
        :attr:`cache_hits`.
        """
        tiers: dict[str, int] = {}
        for record in self.records:
            if not record.cached:
                continue
            tier = record.cache_tier or "unknown"
            tiers[tier] = tiers.get(tier, 0) + 1
        return dict(sorted(tiers.items()))

    @property
    def runs_per_second(self) -> float:
        if self.wall_seconds <= 0:
            return 0.0
        return self.completed / self.wall_seconds

    @property
    def batched(self) -> int:
        """Runs dispatched inside an array-of-machines batch."""
        return sum(r.batch >= 2 for r in self.records)

    @property
    def peeled(self) -> int:
        """Batched runs that peeled out early at a guard boundary."""
        return sum(r.peeled for r in self.records)

    @property
    def peel_rate(self) -> float:
        batched = self.batched
        return self.peeled / batched if batched else 0.0

    @property
    def largest_batch(self) -> int:
        return max((r.batch for r in self.records), default=0)

    def worker_utilization(self) -> dict[int, float]:
        """Per-worker busy fraction: executed seconds / sweep wall-clock."""
        if self.wall_seconds <= 0:
            return {}
        busy: dict[int, float] = {}
        for record in self.records:
            if record.cached or record.worker is None:
                continue
            busy[record.worker] = busy.get(record.worker, 0.0) + record.elapsed
        return {pid: min(1.0, seconds / self.wall_seconds)
                for pid, seconds in sorted(busy.items())}

    def as_dict(self) -> dict:
        return {
            "total": self.total,
            "completed": self.completed,
            "cache_hits": self.cache_hits,
            "executed": self.executed,
            "failures": self.failures,
            "dedup_hits": self.dedup_hits,
            "coalesced_hits": self.coalesced_hits,
            "hit_rate": round(self.hit_rate, 4),
            "cache_tiers": self.cache_tiers(),
            "wall_seconds": round(self.wall_seconds, 4),
            "runs_per_second": round(self.runs_per_second, 3),
            "batched_runs": self.batched,
            "largest_batch": self.largest_batch,
            "peel_rate": round(self.peel_rate, 4),
            "worker_utilization": {
                str(pid): round(fraction, 3)
                for pid, fraction in self.worker_utilization().items()
            },
        }

    def report(self) -> str:
        """Multi-line human-readable summary."""
        lines = [
            f"{self.completed}/{self.total} runs in "
            f"{self.wall_seconds:.2f}s ({self.runs_per_second:.2f} runs/s) "
            f"— {self.cache_hits} cached, {self.executed} executed, "
            f"{self.failures} failed",
        ]
        if self.dedup_hits or self.coalesced_hits:
            lines.append(
                f"coalescing: {self.dedup_hits} deduped in-sweep, "
                f"{self.coalesced_hits} joined in-flight runs")
        tiers = self.cache_tiers()
        if tiers and set(tiers) != {"unknown"}:
            cells = [f"{tier} {count}" for tier, count in tiers.items()]
            lines.append("cache tiers: " + ", ".join(cells))
        if self.batched:
            lines.append(
                f"batched: {self.batched} runs coalesced "
                f"(largest batch {self.largest_batch}), "
                f"peel rate {self.peel_rate:.0%}")
        utilization = self.worker_utilization()
        if utilization:
            cells = [f"pid {pid} {fraction:.0%}"
                     for pid, fraction in utilization.items()]
            lines.append("worker utilization: " + ", ".join(cells))
        return "\n".join(lines)


def progress_line(outcome, done: int, total: int, *,
                  hit_rate: float | None = None) -> str:
    """One status line per completed run, for `--progress` style logs."""
    line = (f"[{done:3d}/{total}] {SOURCE_LABELS[outcome.source]:4s} "
            f"{outcome.request.label:44s} {outcome.elapsed:7.2f}s")
    if hit_rate is not None:
        line += f"  cache {hit_rate:4.0%}"
    if outcome.batch >= 2:
        # '*' marks a run that peeled out of its batch before the end
        line += f"  batch {outcome.batch}{'*' if outcome.peeled else ''}"
    return line
