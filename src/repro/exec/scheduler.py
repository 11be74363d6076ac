"""Process-pool scheduler for simulation sweeps.

:class:`SweepExecutor` takes an ordered list of
:class:`~repro.exec.job.RunRequest` and produces one
:class:`RunOutcome` per request, **in request order**, regardless of how
the work was scheduled.  :meth:`SweepExecutor.run` is the one sweep path
of ``repro sweep`` and of every ``repro serve`` job:

1. every request is content-addressed once (:func:`request_digest`),
   and each unique digest is claimed in the executor's
   :class:`~repro.exec.coalescer.InflightCoalescer`: identical requests
   simulate once, and a digest another concurrent run owns is
   *followed*, not re-executed;
2. under the executor's lock, owned digests are looked up in the cache
   (unless ``refresh``) and the misses execute — serially in-process
   for ``jobs <= 1``, else on a ``ProcessPoolExecutor`` with ``jobs``
   workers that persists across calls, so workers keep their caches of
   built kernel images and generated inputs warm (on fork start
   methods they even inherit the parent's warm caches);
3. failures are isolated: a run that raises (diverging config, deadlock,
   cycle-limit, per-run timeout) produces an outcome with ``error`` set
   while the rest of the sweep completes.  Even a worker crash that
   breaks the pool only falls back to in-process execution of the
   remaining runs;
4. successful results are written back to the cache and the owned
   claims resolve; then the followed digests are awaited outside the
   lock, and one whose owner crashed is inherited and executed here.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass

from ..kernels import BenchmarkRun
from .coalescer import InflightCoalescer
from .job import (
    RunRequest,
    SweepSpec,
    batch_key,
    execute_batch,
    execute_request,
    request_digest,
)
from .progress import SweepMetrics, progress_line

#: seconds a follower waits on another run's claim before it reports an
#: error (a safety valve, not a tuning knob: owners resolve their
#: claims even when they fail)
COALESCE_TIMEOUT = 600.0

#: the error an owned claim resolves with when its run landed nothing
_CRASHED = "in-flight owner failed before producing a result"


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
    #: copies that slot's result and flags (in-sweep dedup)
    deduped: bool = False
    #: served by another concurrent run's in-flight claim (the
    #: executor's coalescer; under ``repro serve``, another job)
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
def _phase(name: str, observer, metrics: SweepMetrics | None = None):
    """Time one stage of a sweep, into ``metrics`` too if given.

    The body fills the yielded dict with the stage's counts; the
    observer, if any, then gets the stage's epoch-second bounds and
    those counts (the service's stage spans).
    """
    info: dict = {}
    started = time.time()
    wall, cpu = time.perf_counter(), time.process_time()
    yield info
    if metrics is not None:
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
    section).  Concurrent :meth:`run` calls on one executor (the
    service's worker threads) coalesce through its :attr:`coalescer`
    and take turns at the cache and the pool under one lock; no call
    waits on a claim while it holds that lock.
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
        #: the in-flight claim table every run() call claims against
        self.coalescer = InflightCoalescer()
        self._lock = threading.Lock()
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
            trace_id: str | None = None) -> list[RunOutcome]:
        """Execute a :class:`SweepSpec` or request sequence.

        :param trace_id: optional trace identifier stamped on the
            structured log records the batch layer emits (refusals,
            scalar fallbacks) and recorded as the manifest's
            ``trace_id``, tying both to the submitting request.
        :param manifest: optional
            :class:`~repro.telemetry.manifest.SweepManifestWriter`; each
            outcome is appended to its run log as it lands (cache hits
            and followers included) and the manifest is finalized when
            the sweep ends.
        :param observer: optional observability hook — duck-typed with
            ``context`` (the trace identity followers of this run's
            claims link to), ``on_phase(name, started, ended, **info)``
            called after each stage (``digest``, ``claim``, ``lock``,
            ``cache``, ``execute``, ``wait`` per followed digest,
            ``manifest``) and ``on_outcome(outcome)`` per outcome as it
            lands.  The service grows the request's span tree with it.
        :returns: outcomes in request order (deterministic regardless of
            worker completion order).
        """
        spec = requests if isinstance(requests, SweepSpec) else None
        requests = list(requests if spec is None else spec.requests)
        metrics = SweepMetrics(total=len(requests))
        self.last_metrics = metrics
        with _phase("digest", observer, metrics):
            digests = [request_digest(request) for request in requests]
        slots: dict[str, list[int]] = {}     # digest -> its request slots
        for index, digest in enumerate(digests):
            slots.setdefault(digest, []).append(index)
        outcomes: list[RunOutcome | None] = [None] * len(requests)
        landed: dict[str, tuple[dict | None, str | None]] = {}

        def land(digest: str, payload=None, error=None, **flags) -> None:
            """Land every slot of ``digest``: later slots copy the first
            slot's result and flags and add ``deduped``."""
            landed[digest] = payload, error
            for position, index in enumerate(slots[digest]):
                outcome = RunOutcome(index, requests[index], digest,
                                     payload=payload, error=error,
                                     deduped=position > 0, **flags)
                outcomes[index] = outcome
                metrics.note(outcome)
                if manifest is not None:
                    manifest.note_outcome(outcome)
                if observer is not None:
                    observer.on_outcome(outcome)
                if self.log:
                    self.log(progress_line(outcome, metrics.completed,
                                           metrics.total,
                                           hit_rate=metrics.hit_rate))

        def own(owned: list[str]) -> None:
            """Look up, then execute, owned digests under the lock (a
            digest's first slot alone carries its execution time)."""
            try:
                with _phase("lock", observer):
                    self._lock.acquire()
                lookup = self.cache is not None and not self.refresh
                with _phase("cache", observer, metrics) as info:
                    misses = []
                    for digest in owned:
                        payload = self.cache.get(digest) if lookup else None
                        if payload is None:
                            misses.append(digest)
                        else:
                            land(digest, payload, cached=True,
                                 cache_tier=self._hit_tier())
                    info.update(hits=len(owned) - len(misses),
                                misses=len(misses))
                unique = [(digest, requests[slots[digest][0]])
                          for digest in misses]
                with _phase("execute", observer, metrics) as info:
                    for digest, payload, error in self._execute(unique,
                                                                trace_id):
                        land(digest, payload, error)
                        if error is None and self.cache is not None:
                            self.cache.put(digest, payload)
                    info.update(executed=len(unique))
            finally:
                self._lock.release()

        def resolve(owned) -> None:
            """Publish each owned digest's result; crashed if none landed."""
            for digest in owned:
                payload, error = landed.get(digest, (None, _CRASHED))
                self.coalescer.resolve(digest, payload, error,
                                       crashed=digest not in landed)

        context = getattr(observer, "context", None)
        claims: dict = {}
        try:
            with _phase("claim", observer) as info:
                for digest in slots:
                    claims[digest] = self.coalescer.claim(digest,
                                                          trace=context)
                owned = [digest for digest, (_, mine) in claims.items()
                         if mine]
                info.update(unique=len(claims), owned=len(owned),
                            followed=len(claims) - len(owned))
            if owned:
                own(owned)
        finally:
            resolve([digest for digest, (_, mine) in claims.items() if mine])
        followed = {}
        for digest, (claim, mine) in claims.items():
            if mine:
                continue
            result = self._await_owner(digest, claim, context, observer)
            if result is not None:
                followed[digest] = result
                continue
            try:                        # inherited from a crashed owner
                own([digest])
            finally:
                resolve([digest])

        with _phase("manifest", observer):
            for digest, (payload, error) in followed.items():
                land(digest, payload, error, coalesced=True)
            metrics.finish()
            if manifest is not None:
                manifest.finalize(metrics=metrics, cache=self.cache,
                                  spec=spec, trace_id=trace_id)
        return outcomes

    def _await_owner(self, digest: str, claim, context, observer):
        """Wait for the result another run owns for ``digest``.

        Returns the owner's ``(payload, error)``, or ``None`` when the
        owner crashed without a result and this run inherited the
        digest, which the caller then executes.  A crashed claim that
        another follower inherited is waited on in turn.
        """
        with _phase("wait", observer) as info:
            info.update(digest=digest, owner=claim.owner_trace)
            while True:
                payload, error = claim.wait(COALESCE_TIMEOUT)
                if not claim.crashed:
                    info["outcome"] = "error" if error else "ok"
                    return payload, error
                claim, inherited = self.coalescer.inherit(claim,
                                                          trace=context)
                if inherited:
                    info["outcome"] = "handoff"
                    return None

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
