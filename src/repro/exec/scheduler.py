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

import os
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass

from ..kernels import BenchmarkRun
from ..obs.profile import ExecProfile
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
    """One request's result: a payload on success, an error string else."""

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
    def elapsed(self) -> float:
        """Simulation seconds (0 for cache hits)."""
        return 0.0 if self.cached else (self.payload or {}).get("elapsed",
                                                                0.0)

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
    :param profile: collect an :class:`~repro.obs.profile.ExecProfile`
        per sweep (``--profile``): per-phase wall/CPU timings and
        per-run self-time, exposed as :attr:`last_profile` and folded
        into the manifest.  Off by default — profiling is opt-in and
        otherwise completely off-path.
    """

    def __init__(self, jobs: int = 0, cache=None, *,
                 timeout: float | None = None, refresh: bool = False,
                 batch: bool = True, log=None, profile: bool = False):
        if jobs < 0:
            raise ValueError("jobs must be >= 0")
        self.jobs = jobs
        self.cache = cache
        self.timeout = timeout
        self.refresh = refresh
        self.batch = batch
        self.log = log
        self.profile = profile
        self.last_metrics: SweepMetrics | None = None
        self.last_profile: ExecProfile | None = None
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
            scalar fallbacks), tying them to the submitting request.
        :param manifest: optional
            :class:`~repro.telemetry.manifest.SweepManifestWriter`; each
            outcome is appended to its run log as it lands (cache hits
            included) and the manifest is finalized when the sweep ends.
        :param observer: optional observability hook — duck-typed with
            ``on_phase(name, started, ended, **info)`` called after the
            cache and execute phases (epoch-second boundaries) and
            ``on_outcome(outcome, record)`` called per outcome as it
            lands.  The service uses this to grow the request's span
            tree; observer errors are the caller's problem by design.
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
        profile = ExecProfile() if self.profile else None
        self.last_profile = profile

        if digests is None:
            with profile.phase("digest") if profile else nullcontext():
                digests = [request_digest(request) for request in requests]
        elif len(digests) != len(requests):
            raise ValueError(f"{len(digests)} digests for "
                             f"{len(requests)} requests")
        outcomes: list[RunOutcome | None] = [None] * len(requests)

        # cache phase — identical digests collapse onto one slot
        pending: dict[str, list[int]] = {}
        done = 0
        phase_started = time.time()
        with profile.phase("cache") if profile else nullcontext():
            for index, (request, digest) in enumerate(zip(requests,
                                                          digests)):
                payload = None
                if self.cache is not None and not self.refresh:
                    payload = self.cache.get(digest)
                if payload is not None:
                    tier = self._hit_tier()
                    outcomes[index] = RunOutcome(index, request, digest,
                                                 payload=payload,
                                                 cached=True,
                                                 cache_tier=tier)
                    done += 1
                    record = metrics.note(index, request.label, cached=True,
                                          failed=False, elapsed=0.0,
                                          worker=None, cache_tier=tier)
                    if manifest is not None:
                        manifest.note_outcome(outcomes[index], record)
                    if observer is not None:
                        observer.on_outcome(outcomes[index], record)
                    if self.log:
                        self.log(progress_line(record, done, metrics.total,
                                               hit_rate=metrics.hit_rate))
                else:
                    pending.setdefault(digest, []).append(index)
        if observer is not None:
            observer.on_phase("cache", phase_started, time.time(),
                              hits=done, misses=len(pending))

        # execute phase
        unique = [(digest, requests[indices[0]])
                  for digest, indices in pending.items()]
        phase_started = time.time()
        with profile.phase("execute") if profile else nullcontext():
            for digest, payload, error in self._execute(unique, trace_id):
                for position, index in enumerate(pending[digest]):
                    outcomes[index] = RunOutcome(index, requests[index],
                                                 digest, payload=payload,
                                                 error=error,
                                                 deduped=position > 0)
                    done += 1
                    # duplicates share the payload but only the first one
                    # carries the execution time (metrics honesty)
                    engine = (payload or {}).get("engine") or {}
                    record = metrics.note(
                        index, requests[index].label, cached=False,
                        failed=error is not None,
                        elapsed=((payload or {}).get("elapsed", 0.0)
                                 if position == 0 else 0.0),
                        worker=(payload or {}).get("worker"),
                        batch=(payload or {}).get("batch_size", 0),
                        peeled=bool(engine.get("peel_count")),
                        deduped=position > 0)
                    if position == 0 and profile is not None:
                        profile.note_run(requests[index].label, payload)
                    if manifest is not None:
                        manifest.note_outcome(outcomes[index], record)
                    if observer is not None:
                        observer.on_outcome(outcomes[index], record)
                    if self.log:
                        self.log(progress_line(record, done, metrics.total,
                                               hit_rate=metrics.hit_rate))
                if error is None and self.cache is not None:
                    self.cache.put(digest, payload)
        if observer is not None:
            observer.on_phase("execute", phase_started, time.time(),
                              executed=len(unique))

        metrics.finish()
        if manifest is not None:
            manifest.finalize(metrics=metrics, cache=self.cache, spec=spec,
                              profile=profile)
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
