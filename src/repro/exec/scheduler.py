"""Process-pool scheduler for simulation sweeps.

:class:`SweepExecutor` takes an ordered list of
:class:`~repro.exec.job.RunRequest` and produces one
:class:`RunOutcome` per request, **in request order**, regardless of how
the work was scheduled:

1. every request is content-addressed (:func:`request_digest`) and
   deduplicated — identical requests simulate once;
2. digests are looked up in the configured cache (unless ``refresh``);
3. the misses execute — serially in-process for ``jobs <= 1``, else on a
   ``ProcessPoolExecutor`` with ``jobs`` workers.  The pool persists
   across :meth:`SweepExecutor.run` calls, so workers keep their
   per-process caches of built kernel images and generated inputs warm
   (on fork start methods they even inherit the parent's warm caches);
4. failures are isolated: a run that raises (diverging config, deadlock,
   cycle-limit, per-run timeout) produces an outcome with ``error`` set
   while the rest of the sweep completes.  Even a worker crash that
   breaks the pool only falls back to in-process execution of the
   remaining runs;
5. successful results are written back to the cache.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass

from ..kernels import BenchmarkRun
from .job import (
    RunRequest,
    SweepSpec,
    batch_key,
    execute_batch,
    execute_request,
    request_digest,
)
from .progress import SweepMetrics, progress_line


@dataclass
class RunOutcome:
    """One request's result: a payload on success, an error string else.

    The one per-run record: progress lines, :class:`SweepMetrics`, the
    manifest's ``runs.jsonl`` rows and the service's job resource all
    read it, and :attr:`source` is the one statement of where a result
    came from.
    """

    index: int
    request: RunRequest
    digest: str
    payload: dict | None = None
    error: str | None = None
    cached: bool = False
    #: cache tier that served a hit (``memory`` / ``disk`` / ``peer``;
    #: ``None`` for executed runs and single-tier caches without names)
    cache_tier: str | None = None
    #: shared a digest with an earlier request in the same sweep and
    #: rode its simulation (in-sweep dedup)
    deduped: bool = False
    #: served by another submission's in-flight run (``repro serve``
    #: coalescing; never set by :class:`SweepExecutor` itself)
    coalesced: bool = False

    @property
    def ok(self) -> bool:
        return self.error is None and self.payload is not None

    @property
    def source(self) -> str:
        """Where the result came from, one of ``error``, ``cache``,
        ``coalesced``, ``deduped`` and ``executed``; the first that
        applies wins."""
        if self.error is not None:
            return "error"
        if self.cached:
            return "cache"
        if self.coalesced:
            return "coalesced"
        if self.deduped:
            return "deduped"
        return "executed"

    @property
    def elapsed(self) -> float:
        """Simulation seconds this slot ran itself: 0 unless
        :attr:`source` is ``executed`` (a slot that rode another's
        simulation carries no execution time of its own)."""
        if self.source != "executed":
            return 0.0
        return (self.payload or {}).get("elapsed", 0.0)

    @property
    def batch(self) -> int:
        """Width of the array-of-machines batch that produced the
        payload in this sweep (0 for cache hits and single dispatch)."""
        return 0 if self.cached else (self.payload or {}).get("batch_size",
                                                               0)

    @property
    def peeled(self) -> bool:
        """The run peeled out of its batch before the end of program."""
        engine = (self.payload or {}).get("engine") or {}
        return self.batch >= 2 and bool(engine.get("peel_count"))

    @property
    def worker(self) -> int | None:
        return (self.payload or {}).get("worker")

    @property
    def golden_match(self) -> bool | None:
        return (self.payload or {}).get("golden_match")

    @property
    def sync_points(self) -> int | None:
        return (self.payload or {}).get("sync_points")

    def benchmark_run(self) -> BenchmarkRun:
        """Reconstruct the run; raises if the request failed."""
        if not self.ok:
            raise RuntimeError(
                f"run {self.request.label} failed: {self.error}")
        return BenchmarkRun.from_json(self.payload["run"])


def _pool_task(request: RunRequest,
               timeout: float | None) -> tuple[dict | None, str | None]:
    """Worker entry point: crash isolation boundary for one run."""
    try:
        return execute_request(request, timeout=timeout), None
    except BaseException as exc:                  # noqa: BLE001 — isolate
        return None, f"{type(exc).__name__}: {exc}"


def _pool_batch(requests: list, timeout: float | None,
                trace_id: str | None = None
                ) -> list[tuple[dict | None, str | None]]:
    """Worker entry point for one coalesced batch (aligned results)."""
    try:
        return execute_batch(requests, timeout=timeout, trace_id=trace_id)
    except BaseException as exc:                  # noqa: BLE001 — isolate
        error = f"{type(exc).__name__}: {exc}"
        return [(None, error)] * len(requests)


@contextmanager
def _phase(name: str, metrics: SweepMetrics, observer):
    """Time one executor phase into ``metrics`` in wall and CPU seconds.

    The body fills the yielded dict with the phase's counts; the
    observer, if any, then gets the phase's epoch-second bounds and
    those counts (the service's stage spans).
    """
    info: dict = {}
    started = time.time()
    wall, cpu = time.perf_counter(), time.process_time()
    yield info
    metrics.note_phase(name, time.perf_counter() - wall,
                       time.process_time() - cpu)
    if observer is not None:
        observer.on_phase(name, started, time.time(), **info)


class SweepExecutor:
    """Schedules sweeps over a cache and (optionally) a process pool.

    :param jobs: worker processes; ``0`` or ``1`` executes in-process.
    :param cache: a :class:`MemoryCache` / :class:`DiskCache` /
        :class:`TieredCache`, or ``None`` for no caching.
    :param timeout: per-run wall-clock budget in seconds (``None`` =
        unbounded; the request's ``max_cycles`` still applies).
    :param refresh: ignore existing cache entries but store fresh ones
        (``--refresh``).
    :param batch: coalesce same-image requests into array-of-machines
        batches (:func:`~repro.exec.job.execute_batch`).  Results are
        bit-identical either way; disable to force per-run dispatch
        (``--no-batch``).
    :param log: callable for progress lines (e.g. ``print``); ``None``
        runs quietly.

    Every sweep times its digest, cache and execute phases in wall and
    CPU seconds (:attr:`SweepMetrics.phases`, the manifest's ``phases``
    section).
    """

    def __init__(self, jobs: int = 0, cache=None, *,
                 timeout: float | None = None, refresh: bool = False,
                 batch: bool = True, log=None):
        if jobs < 0:
            raise ValueError("jobs must be >= 0")
        self.jobs = jobs
        self.cache = cache
        self.timeout = timeout
        self.refresh = refresh
        self.batch = batch
        self.log = log
        self.last_metrics: SweepMetrics | None = None
        self._pool: ProcessPoolExecutor | None = None

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(cancel_futures=True)
            self._pool = None

    def __enter__(self) -> "SweepExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _pool_instance(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.jobs)
        return self._pool

    # -- execution -------------------------------------------------------

    def _hit_tier(self) -> str | None:
        """Which tier served the last cache hit (``None`` if unnamed)."""
        tier = getattr(self.cache, "last_hit_tier", None)
        if tier is None:
            tier = getattr(self.cache, "tier", None)
        return tier

    def run(self, requests, manifest=None, observer=None,
            trace_id: str | None = None,
            digests=None) -> list[RunOutcome]:
        """Execute a :class:`SweepSpec` or request sequence.

        :param trace_id: optional trace identifier stamped on the
            structured log records the batch layer emits (refusals,
            scalar fallbacks) and recorded as the manifest's
            ``trace_id``, tying both to the submitting request.
        :param manifest: optional
            :class:`~repro.telemetry.manifest.SweepManifestWriter`; each
            outcome is appended to its run log as it lands (cache hits
            included) and the manifest is finalized when the sweep ends.
        :param observer: optional observability hook — duck-typed with
            ``on_phase(name, started, ended, **info)`` called after each
            timed phase (epoch-second boundaries) and
            ``on_outcome(outcome)`` called per outcome as it lands.  The
            service uses this to grow the request's span tree; observer
            errors are the caller's problem by design.
        :param digests: the requests' :func:`request_digest` values, in
            order, when the caller has computed them already (the
            service does); ``None`` computes them here.
        :returns: outcomes in request order (deterministic regardless of
            worker completion order).
        """
        spec = requests if isinstance(requests, SweepSpec) else None
        if isinstance(requests, SweepSpec):
            requests = requests.requests
        requests = list(requests)
        metrics = SweepMetrics(total=len(requests))
        self.last_metrics = metrics

        if digests is None:
            with _phase("digest", metrics, observer):
                digests = [request_digest(request) for request in requests]
        elif len(digests) != len(requests):
            raise ValueError(f"{len(digests)} digests for "
                             f"{len(requests)} requests")
        outcomes: list[RunOutcome | None] = [None] * len(requests)

        def land(outcome: RunOutcome) -> None:
            outcomes[outcome.index] = outcome
            metrics.note(outcome)
            if manifest is not None:
                manifest.note_outcome(outcome)
            if observer is not None:
                observer.on_outcome(outcome)
            if self.log:
                self.log(progress_line(outcome, metrics.completed,
                                       metrics.total,
                                       hit_rate=metrics.hit_rate))

        # cache phase — identical digests collapse onto one slot
        pending: dict[str, list[int]] = {}
        with _phase("cache", metrics, observer) as info:
            for index, (request, digest) in enumerate(zip(requests,
                                                          digests)):
                payload = None
                if self.cache is not None and not self.refresh:
                    payload = self.cache.get(digest)
                if payload is not None:
                    land(RunOutcome(index, request, digest, payload=payload,
                                    cached=True,
                                    cache_tier=self._hit_tier()))
                else:
                    pending.setdefault(digest, []).append(index)
            info.update(hits=metrics.completed, misses=len(pending))

        # execute phase — duplicates share the payload, and only the
        # first carries the execution time (RunOutcome.elapsed)
        unique = [(digest, requests[indices[0]])
                  for digest, indices in pending.items()]
        with _phase("execute", metrics, observer) as info:
            for digest, payload, error in self._execute(unique, trace_id):
                for position, index in enumerate(pending[digest]):
                    land(RunOutcome(index, requests[index], digest,
                                    payload=payload, error=error,
                                    deduped=position > 0))
                if error is None and self.cache is not None:
                    self.cache.put(digest, payload)
            info.update(executed=len(unique))

        metrics.finish()
        if manifest is not None:
            manifest.finalize(metrics=metrics, cache=self.cache, spec=spec,
                              trace_id=trace_id)
        return [outcome for outcome in outcomes if outcome is not None]

    def _coalesce(self, unique):
        """Partition unique pending runs into singles and batch groups.

        Requests sharing a :func:`~repro.exec.job.batch_key` (same built
        image, platform and cycle bound — only the inputs differ) form
        one array-of-machines batch; families of one, and requests that
        cannot batch at all, dispatch individually.  Deterministic in
        request order, so batched and pooled sweeps stay reproducible.
        """
        if not self.batch or len(unique) < 2:
            return list(unique), []
        singles, families, order = [], {}, []
        for digest, request in unique:
            key = batch_key(request)
            if key is None:
                singles.append((digest, request))
                continue
            if key not in families:
                families[key] = []
                order.append(key)
            families[key].append((digest, request))
        batches = []
        for key in order:
            group = families[key]
            if len(group) >= 2:
                batches.append(group)
            else:
                singles.append(group[0])
        return singles, batches

    def _execute(self, unique, trace_id=None):
        """Yield ``(digest, payload, error)`` for each unique pending run."""
        singles, batches = self._coalesce(unique)
        if self.log:
            for group in batches:
                head = group[0][1]
                self.log(f"batch: {len(group)} runs coalesced "
                         f"({head.benchmark} {head.design.name} "
                         f"c{head.platform_config().num_cores})")
        if self.jobs > 1 and len(unique) > 1:
            yield from self._execute_pool(singles, batches, trace_id)
            return
        for digest, request in singles:
            payload, error = _pool_task(request, self.timeout)
            yield digest, payload, error
        for group in batches:
            results = _pool_batch([request for _, request in group],
                                  self.timeout, trace_id)
            for (digest, _), (payload, error) in zip(group, results):
                yield digest, payload, error

    def _execute_pool(self, singles, batches, trace_id=None):
        pool = self._pool_instance()
        futures = []
        try:
            for digest, request in singles:
                futures.append((pool.submit(_pool_task, request,
                                            self.timeout),
                                [(digest, request)], False))
            for group in batches:
                futures.append((pool.submit(
                    _pool_batch, [request for _, request in group],
                    self.timeout, trace_id), group, True))
        except BaseException:
            self.close()
            raise
        broken: list[tuple[list, bool]] = []
        for future, group, is_batch in futures:
            try:
                result = future.result()
            except Exception:
                # pool-level failure (e.g. a worker died hard and broke
                # the pool): salvage this work in-process and rebuild
                # the pool lazily on the next sweep.
                broken.append((group, is_batch))
                self.close()
                continue
            if is_batch:
                for (digest, _), (payload, error) in zip(group, result):
                    yield digest, payload, error
            else:
                payload, error = result
                yield group[0][0], payload, error
        for group, is_batch in broken:
            if is_batch:
                results = _pool_batch([request for _, request in group],
                                      self.timeout, trace_id)
            else:
                results = [_pool_task(group[0][1], self.timeout)]
            for (digest, _), (payload, error) in zip(group, results):
                yield digest, payload, error
