"""End-to-end service tests: bit-identity, coalescing, the API surface.

One module-scoped server backs every test; specs use distinct seeds so
tests only share cache entries when they mean to.
"""

import http.client
import json
import threading
import time
from types import SimpleNamespace

import pytest

from repro.exec import (
    MemoryCache,
    RunRequest,
    SweepExecutor,
    SweepSpec,
    WIRE_SCHEMA,
    payload_to_wire,
    request_digest,
    request_from_wire,
    request_to_wire,
)
from repro.kernels import WITH_SYNC, WITHOUT_SYNC
from repro.platform import PlatformConfig, SyncPolicy
from repro.serve import (
    ServeClient,
    ServiceError,
    SweepService,
    default_service_cache,
    start_server,
)

SMALL = dict(n_samples=8, num_cores=2)


def spec_for(seed: int, benchmarks=("SQRT32",), name=None) -> SweepSpec:
    return SweepSpec.grid(name or f"e2e-{seed}", benchmarks,
                          (WITH_SYNC,), samples=(8,), seed=seed,
                          num_cores=2)


def deterministic(payload: dict) -> dict:
    """Strip per-execution bookkeeping, keep the simulated bits."""
    return {k: v for k, v in payload.items()
            if k not in ("elapsed", "worker")}


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    root = tmp_path_factory.mktemp("serve-e2e")
    service = SweepService(cache=default_service_cache(root / "cache"),
                           state_dir=root / "state", concurrency=4)
    with service, start_server(service) as handle:
        yield SimpleNamespace(service=service, handle=handle,
                              client=ServeClient(handle.base_url))


def raw_request(served, method, path, body=None, content_type=None):
    """Bypass ServeClient to exercise raw HTTP error paths."""
    connection = http.client.HTTPConnection(served.handle.host,
                                            served.handle.port, timeout=30)
    try:
        headers = {}
        if content_type:
            headers["Content-Type"] = content_type
        connection.request(method, path, body=body, headers=headers)
        response = connection.getresponse()
        return response.status, json.loads(response.read() or b"null")
    finally:
        connection.close()


class TestEndToEnd:
    def test_served_result_bit_identical_to_direct_execution(self, served):
        spec = spec_for(seed=101)
        job = served.client.submit(spec)
        final = served.client.wait(job["id"])
        assert final["status"] == "done"
        digest = final["runs"][0]["digest"]

        served_payload = served.client.run_payload(digest)
        with SweepExecutor(jobs=0, cache=None) as direct:
            (outcome,) = direct.run(spec)
        assert outcome.digest == digest
        assert deterministic(served_payload) == \
            deterministic(outcome.payload)
        assert final["runs"][0]["golden_match"] is True

    def test_concurrent_identical_submissions_simulate_once(self, served):
        spec = spec_for(seed=202)
        before = served.client.metrics()["service"]["runs"]
        ids, errors = [], []

        def submit():
            try:
                ids.append(served.client.submit(spec)["id"])
            except Exception as exc:  # noqa: BLE001 — report in-test
                errors.append(exc)

        threads = [threading.Thread(target=submit) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        finals = [served.client.wait(job_id) for job_id in ids]
        assert all(final["status"] == "done" for final in finals)

        after = served.client.metrics()["service"]["runs"]
        # the load-bearing invariant: four submissions, ONE simulation
        assert after["executed"] - before["executed"] == 1
        # the rest were coalesced in flight or served from cache
        warm = ((after["coalesced"] - before["coalesced"])
                + (after["cached"] - before["cached"]))
        assert warm == 3
        digests = {final["runs"][0]["digest"] for final in finals}
        assert len(digests) == 1

    def test_warm_second_pass_is_fully_cached(self, served):
        spec = spec_for(seed=303)
        first = served.client.wait(served.client.submit(spec)["id"])
        second = served.client.wait(served.client.submit(spec)["id"])
        assert first["runs"][0]["source"] in ("executed", "cache")
        assert second["runs"][0]["source"] == "cache"
        assert second["metrics"]["executed"] == 0
        assert second["metrics"]["cache_hits"] == len(spec)

    def test_in_sweep_duplicates_are_deduped_and_reported(self, served):
        request = RunRequest("SQRT32", WITH_SYNC, seed=404, **SMALL)
        spec = SweepSpec("dup-spec", (request, request, request))
        final = served.client.wait(served.client.submit(spec)["id"])
        sources = [run["source"] for run in final["runs"]]
        assert sources[0] in ("executed", "cache")
        assert sources[1:] == ["deduped", "deduped"]
        assert final["metrics"]["dedup_hits"] == 2

    def test_events_stream_rows_then_end_marker(self, served):
        spec = spec_for(seed=505, benchmarks=("SQRT32", "MRPDLN"))
        job = served.client.submit(spec)
        events = list(served.client.events(job["id"]))
        assert events[-1]["event"] == "end"
        assert events[-1]["status"] == "done"
        rows = events[:-1]
        assert len(rows) == len(spec)
        assert sorted(row["index"] for row in rows) == [0, 1]
        assert all(len(row["digest"]) == 64 for row in rows)


class TestServedTally:
    """A served job tallies its runs exactly as a direct executor run."""

    #: metrics keys that read the wall clock
    WALL_CLOCK = {"wall_seconds", "runs_per_second", "worker_utilization"}

    def serve(self, tmp_path, spec):
        with SweepService(cache=MemoryCache(),
                          state_dir=tmp_path / "state") as service:
            job = service.submit(spec)
            deadline = time.time() + 120
            while not job.terminal and time.time() < deadline:
                time.sleep(0.02)
            assert job.status == "done", job.error
            manifest = json.loads(
                (job.directory / "manifest.json").read_text())
            return job.to_json(runs=True), manifest

    def test_served_metrics_match_a_direct_executor_run(self, tmp_path):
        spec = SweepSpec("peel-family", tuple(
            RunRequest("MRPDLN", WITH_SYNC, n_samples=8, seed=seed)
            for seed in (11, 12, 13)))
        with SweepExecutor(jobs=0, cache=MemoryCache()) as executor:
            executor.run(spec)
        direct = executor.last_metrics.as_dict()
        # the family batches, and every run peels out of its batch
        assert direct["batched_runs"] == 3
        assert direct["peel_rate"] == 1.0
        resource, manifest = self.serve(tmp_path, spec)
        for served in (resource["metrics"], manifest["metrics"]):
            assert set(served) == set(direct)
            for key in set(direct) - self.WALL_CLOCK:
                assert served[key] == direct[key], key

    def test_job_rows_carry_their_request_index(self, tmp_path):
        a, b = (RunRequest("SQRT32", WITH_SYNC, seed=seed, **SMALL)
                for seed in (606, 607))
        resource, _ = self.serve(tmp_path, SweepSpec("dups", (a, a, b)))
        assert [(row["index"], row["source"]) for row in resource["runs"]] \
            == [(0, "executed"), (1, "deduped"), (2, "executed")]

    def test_run_totals_count_each_run_once_under_its_source(self,
                                                              tmp_path):
        """A follower job of two identical requests: both rows read
        ``coalesced``, and the service's run counters say so.  The
        follower owns nothing, so its manifest times only the digest
        phase, while the owner's also has ``cache`` and ``execute``."""
        request = RunRequest("SQRT32", WITH_SYNC, seed=608, **SMALL)
        service = SweepService(cache=MemoryCache(),
                               state_dir=tmp_path / "state", concurrency=4)
        real_execute, gate = service.executor._execute, threading.Event()

        def gated_execute(*args, **kwargs):
            assert gate.wait(30.0)
            yield from real_execute(*args, **kwargs)

        def wait_until(predicate):
            deadline = time.time() + 60
            while not predicate():
                assert time.time() < deadline
                time.sleep(0.01)

        service.executor._execute = gated_execute
        with service:
            owner = service.submit(SweepSpec("owner", (request,)))
            wait_until(lambda: service.coalescer.as_dict()["owned"] == 1)
            follower = service.submit(SweepSpec("follower",
                                                (request, request)))
            wait_until(
                lambda: service.coalescer.as_dict()["coalesced"] == 1)
            gate.set()
            wait_until(lambda: owner.terminal and follower.terminal)
            runs = service.metrics_registry().snapshot()["service"]["runs"]
        assert [row["source"] for row in
                follower.to_json(runs=True)["runs"]] == ["coalesced"] * 2
        assert runs == {"total": 3, "executed": 1, "cached": 0,
                        "deduped": 0, "coalesced": 2, "failed": 0}
        phases = {job.spec.name: json.loads(
            (job.directory / "manifest.json").read_text())["phases"]
            for job in (owner, follower)}
        assert set(phases["owner"]) == {"digest", "cache", "execute"}
        assert set(phases["follower"]) == {"digest"}


class OwnedLock:
    """The executor's lock, knowing which thread holds it."""

    def __init__(self):
        self._lock = threading.Lock()
        self.owner = None

    def acquire(self) -> bool:
        self._lock.acquire()
        self.owner = threading.get_ident()
        return True

    def release(self) -> None:
        self.owner = None
        self._lock.release()


class TestCrossedClaims:
    def test_crossed_jobs_each_own_one_digest_and_finish(self, tmp_path,
                                                         monkeypatch):
        """Jobs A = (x, y) and B = (y, x): a gate holds each job after
        each claim until the other made its own, so each owns one
        digest the other follows.  Both finish, each digest simulates
        once, and no thread waits on a claim while it holds the
        executor's lock."""
        from repro.exec.coalescer import Claim

        x, y = (RunRequest("SQRT32", WITH_SYNC, seed=seed, **SMALL)
                for seed in (611, 612))
        service = SweepService(cache=MemoryCache(),
                               state_dir=tmp_path / "state", concurrency=2)
        executor = service.executor
        executor._lock = lock = OwnedLock()
        gate = threading.Barrier(2, timeout=30.0)
        real_claim = executor.coalescer.claim

        def gated_claim(digest, *, trace=None):
            result = real_claim(digest, trace=trace)
            gate.wait()
            return result

        waits_under_lock = []
        real_wait = Claim.wait

        def checked_wait(claim, timeout=None):
            if lock.owner == threading.get_ident():
                waits_under_lock.append(claim.digest)
            return real_wait(claim, timeout)

        executed = []
        real_execute = executor._execute

        def counting_execute(unique, trace_id=None):
            executed.extend(digest for digest, _ in unique)
            yield from real_execute(unique, trace_id)

        executor.coalescer.claim = gated_claim
        executor._execute = counting_execute
        monkeypatch.setattr(Claim, "wait", checked_wait)
        with service:
            a = service.submit(SweepSpec("a", (x, y)))
            b = service.submit(SweepSpec("b", (y, x)))
            deadline = time.time() + 60
            while not (a.terminal and b.terminal):
                assert time.time() < deadline, "crossed jobs deadlocked"
                time.sleep(0.01)
            runs = service.metrics_registry().snapshot()["service"]["runs"]
        assert a.status == b.status == "done", (a.error, b.error)
        assert sorted(executed) == sorted(map(request_digest, (x, y)))
        assert waits_under_lock == []
        for job in (a, b):
            rows = job.to_json(runs=True)["runs"]
            assert [row["source"] for row in rows] == ["executed",
                                                       "coalesced"]
            # every row has its run span, the followed one included
            assert len([span for span in job.recorder.spans()
                        if span.stage == "run"]) == len(rows)
        assert runs["executed"] == 2 and runs["coalesced"] == 2


class TestRunsEndpoints:
    def test_put_then_get_round_trip(self, served):
        request = RunRequest("SQRT32", WITH_SYNC, seed=606, **SMALL)
        with SweepExecutor(jobs=0, cache=None) as direct:
            (outcome,) = direct.run([request])
        digest = request_digest(request)
        status, _ = raw_request(
            served, "PUT", f"/v1/runs/{digest}",
            body=json.dumps(payload_to_wire(digest, outcome.payload)),
            content_type="application/json")
        assert status == 204
        assert served.client.run_payload(digest) == outcome.payload

    def test_unknown_digest_is_404_and_none_from_client(self, served):
        absent = "0" * 64
        assert served.client.run_payload(absent) is None
        status, doc = raw_request(served, "GET", f"/v1/runs/{absent}")
        assert status == 404 and doc["error"]["code"] == "not_found"

    def test_digest_mismatch_on_put_is_409(self, served):
        from repro.exec.job import SCHEMA

        doc = payload_to_wire("1" * 64, {"schema": SCHEMA, "run": {}})
        status, body = raw_request(
            served, "PUT", "/v1/runs/" + "2" * 64,
            body=json.dumps(doc), content_type="application/json")
        assert status == 409
        assert body["error"]["code"] == "digest_mismatch"

    def test_malformed_digest_is_400(self, served):
        status, doc = raw_request(served, "GET", "/v1/runs/xyz")
        assert status == 400 and doc["error"]["code"] == "bad_digest"


class TestErrorEnvelopes:
    def test_unknown_job_is_404(self, served):
        status, doc = raw_request(served, "GET", "/v1/sweeps/nope")
        assert status == 404 and doc["error"]["code"] == "not_found"

    def test_invalid_json_submission_is_400(self, served):
        status, doc = raw_request(served, "POST", "/v1/sweeps",
                                  body="{nope", content_type="application/json")
        assert status == 400 and doc["error"]["code"] == "bad_json"

    def test_wire_version_mismatch_is_400(self, served):
        doc = spec_for(seed=707).to_wire()
        doc["wire_schema"] = WIRE_SCHEMA + 1
        with pytest.raises(ServiceError) as excinfo:
            served.client.submit(doc)
        assert excinfo.value.status == 400
        assert excinfo.value.code == "bad_wire_document"

    def test_unknown_benchmark_is_422(self, served):
        doc = spec_for(seed=808).to_wire()
        doc["requests"][0]["benchmark"] = "NOPE"
        with pytest.raises(ServiceError) as excinfo:
            served.client.submit(doc)
        assert excinfo.value.status == 422
        assert excinfo.value.code == "unknown_benchmark"

    def test_wrong_method_is_405(self, served):
        status, doc = raw_request(served, "DELETE", "/v1/healthz")
        assert status == 405
        assert doc["error"]["code"] == "method_not_allowed"


class TestPlatformOverride:
    """A request carrying a full platform override, on the wire."""

    @staticmethod
    def request() -> RunRequest:
        config = PlatformConfig(num_cores=2, policy=SyncPolicy.HW_BARRIER,
                                dm_interleaved=True, im_broadcast=False,
                                dm_broadcast=False)
        return RunRequest("SQRT32", WITH_SYNC, config=config, n_samples=8,
                          seed=1010)

    def test_round_trip_keeps_the_request_and_its_digest(self):
        request = self.request()
        doc = json.loads(json.dumps(request_to_wire(request)))
        assert doc["config"]["policy"] == ["HW_BARRIER"]
        back = request_from_wire(doc)
        assert back == request
        assert request_digest(back) == request_digest(request)

    def test_served_payload_equals_direct_execution(self, served):
        spec = SweepSpec("override", (self.request(),))
        final = served.client.wait(served.client.submit(spec)["id"])
        assert final["status"] == "done", final["error"]
        (run,) = final["runs"]
        with SweepExecutor(jobs=0, cache=None) as direct:
            (outcome,) = direct.run(spec)
        assert outcome.golden_match is True
        assert run["digest"] == outcome.digest
        assert deterministic(served.client.run_payload(run["digest"])) \
            == deterministic(outcome.payload)

    @pytest.mark.parametrize("config", ["not-an-object", ["FULL"],
                                        "unknown-policy"])
    def test_malformed_config_is_400(self, served, config):
        doc = SweepSpec("bad-config", (self.request(),)).to_wire()
        if config == "unknown-policy":
            config = dict(doc["requests"][0]["config"], policy=["NOPE"])
        doc["requests"][0]["config"] = config
        status, body = raw_request(served, "POST", "/v1/sweeps",
                                   body=json.dumps(doc),
                                   content_type="application/json")
        assert status == 400
        assert body["error"]["code"] == "bad_wire_document"
        assert "config" in body["error"]["message"]


class TestObservability:
    def test_healthz_reports_versions(self, served):
        health = served.client.healthz()
        assert health["ok"] is True
        assert health["service"] == "repro-serve"
        assert health["wire_schema"] == WIRE_SCHEMA
        assert health["uptime_seconds"] >= 0

    def test_metrics_snapshot_shape(self, served):
        snapshot = served.client.metrics()
        assert set(snapshot) >= {"service", "coalescer", "cache"}
        runs = snapshot["service"]["runs"]
        assert set(runs) == {"total", "executed", "cached", "deduped",
                             "coalesced", "failed"}
        assert set(snapshot["coalescer"]) == {"owned", "coalesced",
                                              "inflight", "handoffs"}
        assert snapshot["cache"]["backend"] == "TieredCache"
        jobs = snapshot["service"]["jobs"]
        assert jobs["submitted"] == jobs["queued"] + jobs["running"] + \
            jobs["done"] + jobs["failed"]

    def test_job_resource_counts_match_runs(self, served):
        spec = spec_for(seed=909)
        final = served.client.wait(served.client.submit(spec)["id"])
        assert final["total"] == len(spec)
        assert final["completed"] == len(final["runs"]) == len(spec)
        assert final["submitted"] <= final["started"] <= final["finished"]


def test_client_cli_reports_unreachable_server():
    from repro import cli

    assert cli.main(["client", "--server", "http://127.0.0.1:9",
                     "--quick", "--benchmarks", "SQRT32"]) == 2


@pytest.mark.parametrize("broken", ["submit", "events", "wait"])
def test_client_cli_reports_a_dropped_connection(monkeypatch, capsys,
                                                 broken):
    """A server that drops the connection mid-job is reported on
    stderr with exit 2, not taken for a closed stdout."""
    from repro import cli
    from repro.serve import ServeClient

    def drop(*args, **kwargs):
        raise BrokenPipeError(32, "Broken pipe")

    def events(self, job_id):       # a generator, as the client's is
        if broken == "events":
            drop()
        yield {"event": "end", "status": "done"}

    monkeypatch.setattr(ServeClient, "healthz", lambda self: {})
    monkeypatch.setattr(ServeClient, "submit",
                        lambda self, spec: {"id": "j1", "trace_id": "t"})
    monkeypatch.setattr(ServeClient, "events", events)
    if broken != "events":
        monkeypatch.setattr(ServeClient, broken, drop)
    assert cli.main(["client", "--server", "http://127.0.0.1:9",
                     "--quick", "--benchmarks", "SQRT32"]) == 2
    assert "Broken pipe" in capsys.readouterr().err
