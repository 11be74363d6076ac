"""The sweep service: jobs, worker threads, and the shared cache tier.

:class:`SweepService` is the long-lived object behind ``repro serve``.
It owns one :class:`~repro.exec.scheduler.SweepExecutor` (process pool,
result cache, array-of-machines batching), a job table, and the
cross-submission :class:`~repro.serve.coalescer.InflightCoalescer`.
Each submitted :class:`~repro.exec.job.SweepSpec` becomes a
:class:`Job` executed on a worker thread:

1. every request is content-addressed with
   :func:`~repro.exec.job.request_digest`;
2. each unique digest is claimed in the coalescer — digests another
   job is already simulating are *followed*, not re-executed;
3. the owned remainder runs through the shared executor (which applies
   its own cache lookup, in-sweep dedup and batch coalescing);
4. outcomes stream into the job's manifest directory
   (``runs.jsonl`` + ``manifest.json``, the same artifacts
   ``repro sweep`` writes), which also backs the
   ``GET /v1/sweeps/{id}/events`` stream: the job wakes its open
   streams whenever a row lands and when it ends.

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
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

from .. import __version__
from ..exec import (
    DiskCache,
    MemoryCache,
    SweepExecutor,
    SweepSpec,
    TieredCache,
    request_digest,
)
from ..exec.progress import SweepMetrics
from ..exec.scheduler import RunOutcome
from ..exec.wire import WIRE_SCHEMA
from ..obs.context import TraceContext
from ..obs.instruments import ServiceInstruments
from ..obs.log import emit
from ..obs.spans import SpanRecorder
from ..telemetry import MetricsRegistry, SweepManifestWriter
from .coalescer import InflightCoalescer

#: job lifecycle states
QUEUED, RUNNING, DONE, FAILED = "queued", "running", "done", "failed"
TERMINAL = (DONE, FAILED)

#: terminal jobs the table keeps in memory; older ones are answered
#: from their ``job.json`` / ``trace.json`` / ``runs.jsonl``
RETAINED_TERMINAL_JOBS = 64

#: the shape of every job id (``uuid4().hex[:12]``); nothing else may
#: name a path under ``<state_dir>/jobs``
_JOB_ID = re.compile(r"[0-9a-f]{12}")


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

    def note_row(self, writer: SweepManifestWriter,
                 outcome: RunOutcome) -> None:
        """Append one ``runs.jsonl`` row and wake the job's streams."""
        writer.note_outcome(outcome)
        self.completed += 1
        self.wake()

    def trace_document(self) -> dict:
        """The ``GET /v1/sweeps/{id}/trace`` document."""
        return self.recorder.to_perfetto(
            meta={"job_id": self.id, "name": self.spec.name,
                  "status": self.status})

    @staticmethod
    def _source(outcome: RunOutcome) -> str:
        if outcome.error is not None:
            return "error"
        if outcome.cached:
            return "cache"
        if outcome.coalesced:
            return "coalesced"
        if outcome.deduped:
            return "deduped"
        return "executed"

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
                    "source": self._source(outcome),
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


class _ManifestProxy:
    """Adapter the shared executor streams owned-run rows through.

    The executor numbers outcomes within the subset it was handed;
    the proxy remaps them to job-level indices before they reach the
    job's :class:`~repro.telemetry.manifest.SweepManifestWriter`, and
    swallows ``finalize`` — the service finalizes once the coalesced
    and duplicate rows are in too.
    """

    def __init__(self, job: Job, writer: SweepManifestWriter,
                 index_map: list[int]):
        self._job = job
        self._writer = writer
        self._index_map = index_map

    def note_outcome(self, outcome, record=None) -> None:
        remapped = replace(outcome, index=self._index_map[outcome.index])
        self._job.note_row(self._writer, remapped)

    def finalize(self, **kwargs) -> None:
        pass


class _ExecObserver:
    """Executor callbacks → spans and structured log events.

    One instance per job hands the executor's phase boundaries and
    per-outcome notifications to the job's span recorder: the
    cache-tier lookup and execute phases become stage spans, every
    outcome becomes a ``run`` span carrying digest / provenance /
    cache-tier args.
    """

    def __init__(self, job: Job, parent: TraceContext):
        self._job = job
        self._parent = parent

    def on_phase(self, name: str, started: float, ended: float,
                 **info) -> None:
        label = "cache-tier lookup" if name == "cache" else name
        self._job.recorder.record(label, name, self._parent,
                                  started, ended, args=info)
        emit(f"exec.{name}", trace_id=self._job.trace_id,
             job_id=self._job.id, **info)

    def on_outcome(self, outcome, record=None) -> None:
        end = time.time()
        start = end - max(outcome.elapsed or 0.0, 0.0)
        args = {"digest": outcome.digest[:12],
                "source": Job._source(outcome)}
        tier = getattr(outcome, "cache_tier", None)
        if tier is not None:
            args["cache_tier"] = tier
        self._job.recorder.record(f"run {outcome.request.label}", "run",
                                  self._parent, start, end, args=args)
        emit("run.outcome", trace_id=self._job.trace_id,
             job_id=self._job.id, label=outcome.request.label,
             digest=outcome.digest[:12], source=args["source"],
             cache_tier=tier, error=outcome.error,
             elapsed=round(outcome.elapsed or 0.0, 4))


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
    :param coalesce_timeout: seconds a follower waits on an in-flight
        owner before reporting an error (safety valve, not a tuning
        knob — owners resolve their claims even when they fail).
    """

    def __init__(self, *, cache=None, state_dir="serve-state", jobs: int = 0,
                 batch: bool = True, timeout: float | None = None,
                 concurrency: int = 2, coalesce_timeout: float = 600.0,
                 profile: bool = False):
        self.cache = cache if cache is not None else default_service_cache()
        self.state_dir = Path(state_dir)
        self.executor = SweepExecutor(jobs=jobs, cache=self.cache,
                                      timeout=timeout, batch=batch,
                                      profile=profile)
        self.coalesce_timeout = coalesce_timeout
        self.coalescer = InflightCoalescer()
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
        self._exec_lock = threading.Lock()
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

    @contextmanager
    def _exec_slot(self, job: Job):
        """Hold the executor lock; the wait for it is a ``lock`` span."""
        with job.recorder.span("exec-lock wait", "lock",
                               parent=job.span.context):
            self._exec_lock.acquire()
        try:
            yield
        finally:
            self._exec_lock.release()

    def _execute_job(self, job: Job) -> None:
        self._set_status(job, RUNNING)
        job.started = time.time()
        jctx = job.span.context
        recorder = job.recorder
        emit("job.start", trace_id=job.trace_id, job_id=job.id,
             runs=len(job.spec))
        requests = list(job.spec.requests)
        with recorder.span("digest", "digest", parent=jctx):
            digests = [request_digest(request) for request in requests]
            writer = SweepManifestWriter(job.directory, name=job.spec.name)
        try:
            self._execute_sweep(job, requests, digests, writer)
        finally:
            # finalize closes runs.jsonl; a job that fails before it
            # must not leave the file open either
            writer.close()

    def _execute_sweep(self, job: Job, requests: list, digests: list,
                       writer: SweepManifestWriter) -> None:
        jctx = job.span.context
        recorder = job.recorder
        metrics = SweepMetrics(total=len(job.spec))
        observer = _ExecObserver(job, jctx)

        # claim each unique digest once, preserving first-seen order
        claims = {}
        owned_here = {}
        first_index = {}
        with recorder.span("coalesce claim", "coalesce",
                           parent=jctx) as claim_span:
            for index, digest in enumerate(digests):
                if digest not in claims:
                    claims[digest], owned_here[digest] = \
                        self.coalescer.claim(digest, trace=jctx)
                    first_index[digest] = index
            owned = [digest for digest in claims if owned_here[digest]]
            claim_span.args.update(unique=len(claims), owned=len(owned),
                                   followed=len(claims) - len(owned))
        emit("coalesce.claim", trace_id=job.trace_id, job_id=job.id,
             unique=len(claims), owned=len(owned),
             followed=len(claims) - len(owned))

        executed: dict[str, RunOutcome] = {}
        try:
            if owned:
                proxy = _ManifestProxy(job, writer,
                                       [first_index[d] for d in owned])
                with self._exec_slot(job):
                    for outcome in self.executor.run(
                            [requests[first_index[d]] for d in owned],
                            manifest=proxy, observer=observer,
                            trace_id=job.trace_id, digests=owned):
                        executed[outcome.digest] = outcome
        finally:
            # resolve every owned claim, crash or not — followers must
            # receive *something*.  A claim with no outcome means this
            # owner died mid-run: mark it crashed so the first follower
            # inherits the digest instead of surfacing the error.
            for digest in owned:
                outcome = executed.get(digest)
                if outcome is not None:
                    self.coalescer.resolve(digest, outcome.payload,
                                           outcome.error)
                else:
                    self.coalescer.resolve(
                        digest, None,
                        "in-flight owner failed before producing a result",
                        crashed=True)

        # join the digests another submission owns
        followed: dict[str, tuple[dict | None, str | None]] = {}
        for digest, claim in claims.items():
            if owned_here[digest]:
                continue
            result = self._follow(job, claim, digest,
                                  requests[first_index[digest]],
                                  first_index[digest], writer, observer,
                                  executed)
            if result is not None:
                followed[digest] = result

        # assemble outcomes in request order; stream the rows the
        # executor did not write (followers + in-job duplicates)
        outcomes: list[RunOutcome] = []
        with recorder.span("manifest", "manifest", parent=jctx):
            for index, (request, digest) in enumerate(zip(requests,
                                                          digests)):
                base = executed.get(digest)
                if base is not None:
                    if index == first_index[digest]:
                        outcome = base
                    else:
                        outcome = replace(base, index=index, deduped=True)
                        job.note_row(writer, outcome)
                else:
                    payload, error = followed[digest]
                    outcome = RunOutcome(
                        index, request, digest, payload=payload,
                        error=error, coalesced=True,
                        deduped=index != first_index[digest])
                    job.note_row(writer, outcome)
                outcomes.append(outcome)
                metrics.note(
                    index, request.label, cached=outcome.cached,
                    failed=outcome.error is not None,
                    elapsed=(outcome.elapsed
                             if index == first_index[digest]
                             and not outcome.coalesced else 0.0),
                    worker=outcome.worker,
                    batch=(outcome.payload or {}).get("batch_size", 0),
                    deduped=outcome.deduped, coalesced=outcome.coalesced,
                    cache_tier=getattr(outcome, "cache_tier", None))

            metrics.finish()
            writer.finalize(metrics=metrics, cache=self.cache,
                            spec=job.spec, trace_id=job.trace_id,
                            profile=(self.executor.last_profile
                                     if owned else None))
        job.metrics = metrics
        job.outcomes = outcomes
        job.completed = len(outcomes)
        with self._lock:
            totals = self._runs_total
            totals["total"] += len(outcomes)
            totals["executed"] += (metrics.executed - metrics.dedup_hits
                                   - metrics.coalesced_hits)
            totals["cached"] += metrics.cache_hits
            totals["deduped"] += metrics.dedup_hits
            totals["coalesced"] += metrics.coalesced_hits
            totals["failed"] += metrics.failures
            refused = self._batch_refused
            for outcome in outcomes:
                if outcome.cached or outcome.deduped or outcome.coalesced:
                    continue
                reason = (outcome.payload or {}).get("batch_refused")
                if reason:
                    refused[reason] = refused.get(reason, 0) + 1
        self._finish(job, DONE)

    def _follow(self, job: Job, claim, digest: str, request, index: int,
                writer: SweepManifestWriter, observer,
                executed: dict[str, RunOutcome]
                ) -> tuple[dict | None, str | None] | None:
        """Wait on another submission's in-flight run for ``digest``.

        Normally returns the owner's ``(payload, error)``.  When the
        owner *crashed* (resolved without a result), the first follower
        to inherit the digest takes ownership — it executes the run
        itself (recorded in ``executed``, streamed through ``writer``)
        and returns ``None``; later followers wait on the inherited
        claim as usual.  The handoff span-link and log line are emitted
        exactly once, by the inheriting follower.
        """
        recorder = job.recorder
        jctx = job.span.context
        span = recorder.begin(f"coalesce wait {digest[:12]}", "coalesce",
                              parent=jctx, digest=digest[:12])
        owner = claim.owner_trace
        if owner is not None and owner.trace_id != job.trace_id:
            span.links.append({"trace_id": owner.trace_id,
                               "span_id": owner.span_id})
        payload, error = claim.wait(self.coalesce_timeout)
        if not claim.crashed:
            recorder.finish(span, outcome="error" if error else "ok")
            emit("coalesce.follow", trace_id=job.trace_id, job_id=job.id,
                 digest=digest[:12], ok=error is None,
                 owner_trace_id=owner.trace_id if owner else None)
            return payload, error

        # the owner died without a result — exactly one follower
        # inherits the digest (decided on the crashed claim itself)
        takeover, inherited = self.coalescer.inherit(claim, trace=jctx)
        if not inherited:
            # another claimant owns the successor; wait on its claim
            recorder.finish(span, outcome="handoff-followed")
            return takeover.wait(self.coalesce_timeout)
        recorder.finish(span, outcome="handoff")
        emit("coalesce.handoff", level=logging.WARNING,
             trace_id=job.trace_id, job_id=job.id, digest=digest[:12],
             owner_trace_id=owner.trace_id if owner else None)
        try:
            proxy = _ManifestProxy(job, writer, [index])
            with self._exec_slot(job):
                for outcome in self.executor.run([request], manifest=proxy,
                                                 observer=observer,
                                                 trace_id=job.trace_id,
                                                 digests=[digest]):
                    executed[digest] = outcome
        finally:
            outcome = executed.get(digest)
            self.coalescer.resolve(
                digest,
                outcome.payload if outcome is not None else None,
                outcome.error if outcome is not None
                else "handoff execution failed before producing a result",
                crashed=outcome is None)
        return None

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
