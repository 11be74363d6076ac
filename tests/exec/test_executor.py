"""Scheduler: parallel == serial bit-identity, caching, crash isolation."""

import sys
import threading

import pytest

from repro.exec import (
    DiskCache,
    MemoryCache,
    RunRequest,
    SweepExecutor,
    SweepSpec,
    request_digest,
)
from repro.kernels import WITH_SYNC, WITHOUT_SYNC

SMALL = dict(n_samples=8, num_cores=2)


def small_spec() -> SweepSpec:
    return SweepSpec.grid("unit", ("SQRT32", "MRPDLN"),
                          (WITH_SYNC, WITHOUT_SYNC), samples=(8,),
                          num_cores=2)


def content(outcome):
    """The deterministic part of a payload (bookkeeping stripped)."""
    return {k: v for k, v in outcome.payload.items()
            if k not in ("elapsed", "worker")}


class TestDifferential:
    def test_parallel_matches_serial_bit_for_bit(self):
        spec = small_spec()
        with SweepExecutor(jobs=0) as serial_ex:
            serial = serial_ex.run(spec)
        with SweepExecutor(jobs=2) as parallel_ex:
            parallel = parallel_ex.run(spec)
        assert [content(o) for o in serial] == [content(o)
                                                for o in parallel]
        assert all(o.ok and o.golden_match for o in serial)

    def test_outcomes_preserve_request_order(self):
        spec = small_spec()
        with SweepExecutor(jobs=2) as executor:
            outcomes = executor.run(spec)
        assert [o.index for o in outcomes] == list(range(len(spec)))
        assert [o.request for o in outcomes] == list(spec.requests)


class TestCaching:
    def test_second_sweep_is_all_hits(self, tmp_path):
        spec = small_spec()
        cache = DiskCache(tmp_path)
        with SweepExecutor(jobs=0, cache=cache) as executor:
            first = executor.run(spec)
            assert executor.last_metrics.executed == len(spec)
            second = executor.run(spec)
        assert all(o.cached for o in second)
        assert executor.last_metrics.executed == 0
        assert executor.last_metrics.cache_hits == len(spec)
        assert [content(a) for a in first] == [content(b) for b in second]

    def test_fresh_executor_hits_the_disk_cache(self, tmp_path):
        spec = small_spec()
        with SweepExecutor(jobs=0, cache=DiskCache(tmp_path)) as executor:
            executor.run(spec)
        with SweepExecutor(jobs=0, cache=DiskCache(tmp_path)) as executor:
            again = executor.run(spec)
        assert all(o.cached for o in again)

    def test_refresh_bypasses_but_restores_the_cache(self, tmp_path):
        spec = small_spec()
        cache = DiskCache(tmp_path)
        with SweepExecutor(jobs=0, cache=cache) as executor:
            executor.run(spec)
        with SweepExecutor(jobs=0, cache=cache,
                           refresh=True) as executor:
            refreshed = executor.run(spec)
            assert not any(o.cached for o in refreshed)
            assert executor.last_metrics.executed == len(spec)
        with SweepExecutor(jobs=0, cache=cache) as executor:
            assert all(o.cached for o in executor.run(spec))

    def test_duplicate_requests_simulate_once(self):
        request = RunRequest("SQRT32", WITH_SYNC, **SMALL)
        with SweepExecutor(jobs=0, cache=MemoryCache()) as executor:
            outcomes = executor.run([request, request, request])
        metrics = executor.last_metrics
        assert metrics.executed == 3                 # reported per slot
        assert len({id(o.payload) for o in outcomes}) == 1  # one simulation
        # ... but the duplicates carry no execution time of their own
        assert sum(r.elapsed > 0 for r in metrics.records) == 1


class TestIsolation:
    def test_failed_run_does_not_sink_the_sweep(self):
        good = RunRequest("SQRT32", WITH_SYNC, **SMALL)
        bad = RunRequest("SQRT32", WITH_SYNC, **SMALL, max_cycles=10)
        with SweepExecutor(jobs=0) as executor:
            doomed, fine = executor.run([bad, good])
        assert not doomed.ok and "SimulationLimitError" in doomed.error
        assert fine.ok and fine.golden_match
        assert executor.last_metrics.failures == 1

    def test_pool_isolates_failures_too(self):
        good = RunRequest("SQRT32", WITH_SYNC, **SMALL)
        bad = RunRequest("SQRT32", WITHOUT_SYNC, **SMALL, max_cycles=10)
        with SweepExecutor(jobs=2) as executor:
            doomed, fine = executor.run([bad, good])
        assert not doomed.ok and "SimulationLimitError" in doomed.error
        assert fine.ok

    def test_benchmark_run_raises_on_failure(self):
        bad = RunRequest("SQRT32", WITH_SYNC, **SMALL, max_cycles=10)
        with SweepExecutor(jobs=0) as executor:
            outcome, = executor.run([bad])
        with pytest.raises(RuntimeError, match="failed"):
            outcome.benchmark_run()

    def test_per_run_timeout(self):
        slow = RunRequest("MRPFLTR", WITH_SYNC, n_samples=64,
                          fast_engine=False)
        with SweepExecutor(jobs=0, timeout=1e-4) as executor:
            outcome, = executor.run([slow])
        assert not outcome.ok and "RunTimeout" in outcome.error

    def test_failures_are_not_cached(self, tmp_path):
        bad = RunRequest("SQRT32", WITH_SYNC, **SMALL, max_cycles=10)
        cache = DiskCache(tmp_path)
        with SweepExecutor(jobs=0, cache=cache) as executor:
            executor.run([bad])
        assert len(cache) == 0


class TestMetrics:
    def test_report_shape(self):
        spec = small_spec()
        lines = []
        with SweepExecutor(jobs=0, cache=MemoryCache(),
                           log=lines.append) as executor:
            executor.run(spec)
        metrics = executor.last_metrics
        assert metrics.completed == len(spec)
        assert metrics.runs_per_second > 0
        assert "runs" in metrics.report()
        assert len(lines) == len(spec)              # one progress line each
        assert all(f"{i + 1}/{len(spec)}" in line
                   for i, line in enumerate(lines))

    def test_worker_utilization_is_bounded(self):
        with SweepExecutor(jobs=2) as executor:
            executor.run(small_spec())
        for busy in executor.last_metrics.worker_utilization().values():
            assert 0.0 <= busy <= 1.0


def test_duplicate_outcomes_are_flagged_deduped():
    request = RunRequest("SQRT32", WITH_SYNC, **SMALL)
    with SweepExecutor(jobs=0, cache=MemoryCache()) as executor:
        outcomes = executor.run([request, request, request])
    assert [o.deduped for o in outcomes] == [False, True, True]
    assert executor.last_metrics.dedup_hits == 2
    # a lone run follows no other run's claim
    assert all(not o.coalesced for o in outcomes)


def test_concurrent_runs_simulate_each_digest_once():
    """Six threads, more than the cores, run overlapping sweeps on one
    executor under a short switch interval: every digest simulates
    once, every run gets all of its outcomes, and no claim is left in
    flight."""
    requests = [RunRequest("SQRT32", WITH_SYNC, seed=seed, **SMALL)
                for seed in range(31, 35)]
    executed, errors, results = [], [], {}
    with SweepExecutor(jobs=0, cache=MemoryCache()) as executor:
        real_execute = executor._execute

        def counting_execute(unique, trace_id=None):
            executed.extend(digest for digest, _ in unique)
            yield from real_execute(unique, trace_id)

        executor._execute = counting_execute

        def sweep(worker):
            shift = worker % len(requests)
            order = requests[shift:] + requests[:shift]
            try:
                results[worker] = executor.run(order + order[:1])
            except Exception as exc:   # noqa: BLE001 — reported below
                errors.append(exc)

        threads = [threading.Thread(target=sweep, args=(worker,))
                   for worker in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60.0)
        finally:
            sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert sorted(executed) == sorted(map(request_digest, requests))
    assert len(results) == len(threads)
    for outcomes in results.values():
        assert [o.index for o in outcomes] == list(range(5))
        assert all(o.ok and o.golden_match for o in outcomes)
        assert outcomes[-1].deduped
    assert executor.coalescer.as_dict()["inflight"] == 0
