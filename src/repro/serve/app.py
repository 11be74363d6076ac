"""The sweep service: jobs, worker threads, and the shared cache tier.

:class:`SweepService` is the long-lived object behind ``repro serve``.
It owns one :class:`~repro.exec.scheduler.SweepExecutor` (process pool,
result cache, batching, and the in-flight coalescer every job claims
against) and a job table.  Each submitted
:class:`~repro.exec.job.SweepSpec` becomes a :class:`Job`, executed on a
worker thread as one :meth:`SweepExecutor.run
<repro.exec.scheduler.SweepExecutor.run>` call that streams its rows
into the job's manifest directory (``runs.jsonl`` + ``manifest.json``,
as ``repro sweep`` writes them).  The job's observer turns the
executor's callbacks into spans and log events and wakes the job's
``GET /v1/sweeps/{id}/events`` streams as each row lands.

The job table keeps queued and running jobs plus the most recent
:data:`RETAINED_TERMINAL_JOBS` terminal ones.  A terminal job leaves
memory only once its resource document (``job.json``) and span tree
(``trace.json``) are on disk beside its manifest; lookups of a dropped
id read them back as a :class:`StoredJob`.

The HTTP front end lives in :mod:`repro.serve.routes`; this module is
HTTP-free and directly usable in-process (the end-to-end tests do).
"""

from __future__ import annotations

import json
import logging
import re
import threading
import time
import uuid
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from .. import __version__
from ..exec import (
    DiskCache,
    MemoryCache,
    SweepExecutor,
    SweepSpec,
    TieredCache,
)
from ..exec.progress import SweepMetrics
from ..exec.scheduler import RunOutcome
from ..exec.wire import WIRE_SCHEMA
from ..obs.context import TraceContext
from ..obs.instruments import ServiceInstruments
from ..obs.log import emit
from ..obs.spans import SpanRecorder
from ..telemetry import MetricsRegistry, SweepManifestWriter

#: job lifecycle states
QUEUED, RUNNING, DONE, FAILED = "queued", "running", "done", "failed"
TERMINAL = (DONE, FAILED)

#: terminal jobs the table keeps in memory; older ones are answered
#: from their ``job.json`` / ``trace.json`` / ``runs.jsonl``
RETAINED_TERMINAL_JOBS = 64

#: the shape of every job id (``uuid4().hex[:12]``); nothing else may
#: name a path under ``<state_dir>/jobs``
_JOB_ID = re.compile(r"[0-9a-f]{12}")

#: ``_runs_total`` keys that differ from the run source they count
_RUN_TOTALS = {"cache": "cached", "error": "failed"}


class Job:
    """One submitted sweep and everything the API reports about it.

    Every job carries one :class:`~repro.obs.spans.SpanRecorder` — its
    request's span tree, continuing the client's trace when the
    submission propagated one.  ``GET /v1/sweeps/{id}/trace`` exports
    it live; ``trace.json`` in the job directory persists it.

    Open events streams register a waker (an ``asyncio.Event`` plus
    its loop); the worker thread sets them whenever a run row lands in
    ``runs.jsonl`` and when the job turns terminal.
    """

    def __init__(self, job_id: str, spec: SweepSpec, directory: Path, *,
                 trace: TraceContext | None = None):
        self.id = job_id
        self.spec = spec
        self.directory = directory
        self.status = QUEUED
        self.error: str | None = None
        self.submitted = time.time()
        self.started: float | None = None
        self.finished: float | None = None
        self.completed = 0
        self.outcomes: list[RunOutcome] | None = None
        self.metrics: SweepMetrics | None = None
        self.recorder = SpanRecorder(
            trace_id=trace.trace_id if trace is not None else None)
        self.span = None                #: the job-lifetime span
        self.queue_wait: float | None = None
        self._wakers: dict = {}         #: asyncio.Event -> its loop
        self._wakers_lock = threading.Lock()

    @property
    def trace_id(self) -> str:
        return self.recorder.trace_id

    @property
    def terminal(self) -> bool:
        return self.status in TERMINAL

    # -- events-stream wakers ---------------------------------------------

    def watch(self, loop, event) -> None:
        """Set ``event`` on ``loop`` at every new row and at the end."""
        with self._wakers_lock:
            self._wakers[event] = loop

    def unwatch(self, event) -> None:
        with self._wakers_lock:
            self._wakers.pop(event, None)

    @property
    def watchers(self) -> int:
        """Events streams currently registered."""
        with self._wakers_lock:
            return len(self._wakers)

    def wake(self) -> None:
        with self._wakers_lock:
            wakers = list(self._wakers.items())
        for event, loop in wakers:
            try:
                loop.call_soon_threadsafe(event.set)
            except RuntimeError:        # that stream's loop has closed
                pass

    def trace_document(self) -> dict:
        """The ``GET /v1/sweeps/{id}/trace`` document."""
        return self.recorder.to_perfetto(
            meta={"job_id": self.id, "name": self.spec.name,
                  "status": self.status})

    def to_json(self, *, runs: bool = False) -> dict:
        """The job resource of ``GET /v1/sweeps/{id}``."""
        doc = {
            "id": self.id,
            "name": self.spec.name,
            "status": self.status,
            "error": self.error,
            "trace_id": self.trace_id,
            "total": len(self.spec),
            "completed": self.completed,
            "submitted": self.submitted,
            "started": self.started,
            "finished": self.finished,
            "metrics": (self.metrics.as_dict()
                        if self.metrics is not None else None),
        }
        outcomes = self.outcomes
        if runs and outcomes is not None:
            doc["runs"] = [
                {
                    "index": outcome.index,
                    "label": outcome.request.label,
                    "digest": outcome.digest,
                    "source": outcome.source,
                    "error": outcome.error,
                    "golden_match": outcome.golden_match,
                    "elapsed": outcome.elapsed,
                }
                for outcome in outcomes
            ]
        return doc


class StoredJob:
    """A terminal job dropped from the table, answered from its directory.

    ``job.json`` holds the ``GET /v1/sweeps/{id}`` document and
    ``trace.json`` the span tree, both as the live job last served
    them; the events stream replays ``runs.jsonl``.
    """

    terminal = True

    def __init__(self, directory: Path, doc: dict):
        self.directory = directory
        self.doc = doc
        self.status = doc["status"]
        self.error = doc["error"]

    @classmethod
    def load(cls, directory: Path) -> "StoredJob | None":
        """The job persisted in ``directory``; ``None`` when there is none."""
        try:
            doc = json.loads((directory / "job.json").read_text())
        except (OSError, ValueError):
            return None
        return cls(directory, doc)

    def to_json(self, *, runs: bool = True) -> dict:
        """The stored document; it has its ``runs`` rows (if any)."""
        return self.doc

    def trace_document(self) -> dict:
        return json.loads((self.directory / "trace.json").read_text())

    def watch(self, loop, event) -> None:
        """Nothing will wake the stream: the job has ended."""

    def unwatch(self, event) -> None:
        pass


#: executor stage -> (span name, span stage, log event or ``None``)
_STAGES = {
    "digest": ("digest", "digest", None),
    "claim": ("coalesce claim", "coalesce", "coalesce.claim"),
    "lock": ("exec-lock wait", "lock", None),
    "cache": ("cache-tier lookup", "cache", "exec.cache"),
    "execute": ("execute", "execute", "exec.execute"),
    "manifest": ("manifest", "manifest", None),
}


class _ExecObserver:
    """Executor callbacks → spans, structured log events, stream wakes.

    One per job.  Each executor stage becomes a stage span under the
    job span (:data:`_STAGES`; a followed digest's wait becomes
    ``coalesce wait <digest>``, span-linked to the owner), and each
    outcome a ``run`` span; the outcome's row is in ``runs.jsonl`` by
    then, so it also wakes the job's events streams.
    """

    def __init__(self, job: Job):
        self._job = job
        #: parent of every stage span; followers of this job's claims
        #: link to it
        self.context = job.span.context

    def on_phase(self, name: str, started: float, ended: float,
                 **info) -> None:
        job = self._job
        if name == "wait":
            self._on_wait(started, ended, **info)
            return
        label, stage, event = _STAGES[name]
        job.recorder.record(label, stage, self.context, started, ended,
                            args=info)
        if event is not None:
            emit(event, trace_id=job.trace_id, job_id=job.id, **info)

    def _on_wait(self, started: float, ended: float, *, digest: str,
                 owner, outcome: str) -> None:
        job, digest = self._job, digest[:12]
        owner_trace_id = getattr(owner, "trace_id", None)
        links = ([{"trace_id": owner_trace_id, "span_id": owner.span_id}]
                 if owner_trace_id not in (None, job.trace_id) else [])
        job.recorder.record(f"coalesce wait {digest}", "coalesce",
                            self.context, started, ended,
                            args={"digest": digest, "outcome": outcome},
                            links=links)
        handoff = outcome == "handoff"
        emit("coalesce.handoff" if handoff else "coalesce.follow",
             level=logging.WARNING if handoff else logging.INFO,
             trace_id=job.trace_id, job_id=job.id, digest=digest,
             ok=None if handoff else outcome == "ok",
             owner_trace_id=owner_trace_id)

    def on_outcome(self, outcome) -> None:
        job = self._job
        end = time.time()
        start = end - max(outcome.elapsed, 0.0)
        args = {"digest": outcome.digest[:12], "source": outcome.source}
        tier = outcome.cache_tier
        if tier is not None:
            args["cache_tier"] = tier
        job.recorder.record(f"run {outcome.request.label}", "run",
                            self.context, start, end, args=args)
        emit("run.outcome", trace_id=job.trace_id, job_id=job.id,
             label=outcome.request.label, digest=outcome.digest[:12],
             source=args["source"], cache_tier=tier, error=outcome.error,
             elapsed=round(outcome.elapsed, 4))
        job.completed += 1
        job.wake()


def default_service_cache(cache_dir=None, *, remote=None) -> TieredCache:
    """The service's standard tier stack: memory -> disk [-> peer]."""
    return TieredCache(MemoryCache(max_entries=512), DiskCache(cache_dir),
                       remote=remote)


class SweepService:
    """Job orchestration behind the HTTP API (and for direct embedding).

    :param cache: any object speaking the cache protocol; ``None``
        builds :func:`default_service_cache`.
    :param state_dir: root for per-job manifest directories
        (``<state_dir>/jobs/<id>/runs.jsonl``).
    :param jobs: executor worker processes (``0`` = in-process serial).
    :param concurrency: worker *threads* driving sweeps; at least 2 so
        concurrent submissions can coalesce instead of queueing.
    """

    def __init__(self, *, cache=None, state_dir="serve-state", jobs: int = 0,
                 batch: bool = True, timeout: float | None = None,
                 concurrency: int = 2):
        self.cache = cache if cache is not None else default_service_cache()
        self.state_dir = Path(state_dir)
        self.executor = SweepExecutor(jobs=jobs, cache=self.cache,
                                      timeout=timeout, batch=batch)
        #: the executor's claim table, which every job claims against
        self.coalescer = self.executor.coalescer
        #: queued and running jobs plus the retained terminal ones
        self.jobs: dict[str, Job] = {}
        #: ids of the persisted terminal jobs in ``jobs``, oldest first
        self._retained: deque[str] = deque()
        #: job counts over the service's lifetime, evicted jobs included
        self._job_counts: dict[str, int] = {
            "submitted": 0, QUEUED: 0, RUNNING: 0, DONE: 0, FAILED: 0}
        self.started_at = time.time()
        self._monotonic_start = time.monotonic()
        self._lock = threading.Lock()
        self._pool = ThreadPoolExecutor(
            max_workers=max(2, concurrency),
            thread_name_prefix="repro-serve")
        self._runs_total: dict[str, int] = {
            "total": 0, "executed": 0, "cached": 0, "deduped": 0,
            "coalesced": 0, "failed": 0}
        #: executed runs a batch's entry guard refused (silent scalar
        #: fallbacks), by reason — feeds ``repro_batch_refused_total``
        self._batch_refused: dict[str, int] = {}
        self.instruments = ServiceInstruments(
            self, version=__version__, wire_schema=WIRE_SCHEMA)

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        self._pool.shutdown(wait=True, cancel_futures=True)
        self.executor.close()

    def __enter__(self) -> "SweepService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def uptime_seconds(self) -> float:
        return time.monotonic() - self._monotonic_start

    # -- submission ------------------------------------------------------

    def submit(self, spec: SweepSpec, *, trace: TraceContext | None = None,
               via: str | None = None) -> Job:
        """Accept a sweep; returns the queued :class:`Job` immediately.

        :param trace: the client's propagated context; when set, the
            job's span tree continues that trace (its root span parents
            to the client's span id).
        :param via: transport span name (e.g. ``"http POST /v1/sweeps"``)
            inserted between the client context and the job span; the
            HTTP front end sets it so the span tree names the receive
            stage even though the service itself is transport-free.
        """
        job_id = uuid.uuid4().hex[:12]
        job = Job(job_id, spec, self.state_dir / "jobs" / job_id,
                  trace=trace)
        parent = trace
        http_span = None
        if via is not None:
            http_span = job.recorder.begin(via, "http", parent=parent)
            parent = http_span.context
        job.span = job.recorder.begin(f"job {spec.name}", "job",
                                      parent=parent, job_id=job_id,
                                      runs=len(spec))
        with self._lock:
            self.jobs[job_id] = job
            self._job_counts["submitted"] += 1
            self._job_counts[QUEUED] += 1
        self._pool.submit(self._run_job, job)
        if http_span is not None:
            job.recorder.finish(http_span)
        emit("job.submit", trace_id=job.trace_id, job_id=job_id,
             name=spec.name, runs=len(spec),
             propagated=trace is not None)
        return job

    def job(self, job_id: str) -> Job | StoredJob | None:
        """The job ``job_id`` names: live from the table, or a dropped
        one from its directory.

        Anything but 12 lowercase hex characters is unknown before the
        filesystem is touched, so no id reaches outside
        ``<state_dir>/jobs``.
        """
        if _JOB_ID.fullmatch(job_id) is None:
            return None
        with self._lock:
            job = self.jobs.get(job_id)
        if job is not None:
            return job
        return StoredJob.load(self.state_dir / "jobs" / job_id)

    def run_payload(self, digest: str) -> dict | None:
        """Cache lookup for ``GET /v1/runs/{digest}``."""
        return self.cache.get(digest)

    def store_payload(self, digest: str, payload: dict) -> None:
        """Peer write-through for ``PUT /v1/runs/{digest}``."""
        self.cache.put(digest, payload)

    # -- execution (worker thread) ---------------------------------------

    def _run_job(self, job: Job) -> None:
        started = time.time()
        job.queue_wait = started - job.submitted
        job.recorder.record("queue", "queue", job.span.context,
                            job.span.start, started)
        self.instruments.observe_queue_wait(job.queue_wait)
        try:
            self._execute_job(job)
        except Exception as exc:    # noqa: BLE001 — job-level isolation
            self._finish(job, FAILED, f"{type(exc).__name__}: {exc}")
            emit("job.failed", level=logging.ERROR, exc_info=exc,
                 trace_id=job.trace_id, job_id=job.id, error=job.error)
        finally:
            latency = (job.finished or time.time()) - job.submitted
            self.instruments.observe_request_latency(latency)
            if self._persist(job):
                self._retain(job)
            emit("job.done", trace_id=job.trace_id, job_id=job.id,
                 status=job.status, completed=job.completed,
                 queue_wait_ms=round(job.queue_wait * 1000, 3),
                 latency_ms=round(latency * 1000, 3))

    def _set_status(self, job: Job, status: str) -> None:
        with self._lock:
            self._job_counts[job.status] -= 1
            self._job_counts[status] += 1
            job.status = status

    def _finish(self, job: Job, status: str,
                error: str | None = None) -> None:
        """Turn ``job`` terminal, close its span, wake its streams."""
        job.error = error
        job.finished = time.time()
        self._set_status(job, status)
        job.recorder.finish(job.span, status=status, error=error)
        job.wake()

    def _persist(self, job: Job) -> bool:
        """Write ``trace.json``, then ``job.json``, beside the manifest.

        Both documents are final once the job span has closed.  False
        when a write fails: observability must not fail the job, which
        then stays in memory.
        """
        try:
            job.directory.mkdir(parents=True, exist_ok=True)
            for name, doc in (("trace.json", job.trace_document()),
                              ("job.json", job.to_json(runs=True))):
                (job.directory / name).write_text(
                    json.dumps(doc, sort_keys=True) + "\n")
        except (OSError, TypeError, ValueError):
            return False
        return True

    def _retain(self, job: Job) -> None:
        """Count a persisted terminal job among the retained ones and
        drop the oldest beyond :data:`RETAINED_TERMINAL_JOBS`."""
        with self._lock:
            self._retained.append(job.id)
            while len(self._retained) > RETAINED_TERMINAL_JOBS:
                del self.jobs[self._retained.popleft()]

    def _execute_job(self, job: Job) -> None:
        self._set_status(job, RUNNING)
        job.started = time.time()
        emit("job.start", trace_id=job.trace_id, job_id=job.id,
             runs=len(job.spec))
        with job.recorder.span("manifest", "manifest",
                               parent=job.span.context):
            writer = SweepManifestWriter(job.directory, name=job.spec.name)
        try:
            outcomes = self.executor.run(job.spec, manifest=writer,
                                         observer=_ExecObserver(job),
                                         trace_id=job.trace_id)
        finally:
            # finalize closes runs.jsonl; a job that fails before it
            # must not leave the file open either
            writer.close()
        job.metrics = writer.metrics
        job.outcomes = outcomes
        with self._lock:
            # each run counts once, under its source
            totals = self._runs_total
            totals["total"] += len(outcomes)
            for outcome in outcomes:
                source = outcome.source
                totals[_RUN_TOTALS.get(source, source)] += 1
                reason = (outcome.payload or {}).get("batch_refused")
                if source == "executed" and reason:
                    refused = self._batch_refused
                    refused[reason] = refused.get(reason, 0) + 1
        self._finish(job, DONE)

    # -- observability ---------------------------------------------------

    def health(self) -> dict:
        return {
            "ok": True,
            "service": "repro-serve",
            "version": __version__,
            "wire_schema": WIRE_SCHEMA,
            "uptime_seconds": round(self.uptime_seconds, 3),
        }

    def _service_metrics(self) -> dict:
        with self._lock:
            jobs = dict(self._job_counts)
            runs = dict(self._runs_total)
        return {
            "uptime_seconds": round(self.uptime_seconds, 3),
            "jobs": jobs,
            "runs": runs,
        }

    def _cache_metrics(self) -> dict:
        doc = {"backend": type(self.cache).__name__,
               **self.cache.stats.as_dict()}
        tiers = getattr(self.cache, "tier_stats", None)
        if callable(tiers):
            doc["tiers"] = {tier: stats.as_dict()
                            for tier, stats in tiers().items()}
        remote = getattr(self.cache, "remote", None)
        if remote is not None:
            doc["remote"] = {"backend": type(remote).__name__,
                             "disabled": remote.disabled,
                             "errors": remote.errors,
                             **remote.stats.as_dict()}
        return doc

    def metrics_registry(self) -> MetricsRegistry:
        """The ``/v1/metrics`` sources: service, coalescer, cache."""
        registry = MetricsRegistry()
        registry.add_source("service", self._service_metrics)
        registry.add_source("coalescer", self.coalescer.as_dict)
        registry.add_source("cache", self._cache_metrics)
        return registry

    def prometheus_text(self) -> str:
        """``GET /v1/metrics?format=prometheus`` — the exposition body.

        The curated instrument families first, then the legacy JSON
        snapshot flattened into ``repro_snapshot{path=...}`` gauges so
        every historical metric stays scrapeable under one document.
        """
        return self.instruments.render(
            snapshot=self.metrics_registry().snapshot())
