"""The pushed events stream and the bounded job table.

- a client sees ``end`` within a few milliseconds of its job span, and
  the job's stage spans cover its wall time, cold and warm;
- a client that disconnects mid-stream leaves no waker registered, and
  the stream can be requested again;
- the table keeps at most ``RETAINED_TERMINAL_JOBS`` terminal jobs, and
  a dropped id's status, trace and events documents read back
  unchanged from disk, also while evictions race open streams;
- a malformed job id is a 404 that never reaches the filesystem.

Served results are checked bit for bit against direct execution.
"""

import http.client
import json
import sys
import threading
import time
from types import SimpleNamespace

import pytest

from repro.exec import MemoryCache, RunRequest, SweepExecutor, SweepSpec
from repro.kernels import WITH_SYNC, WITHOUT_SYNC
from repro.serve import (
    ServeClient,
    SweepService,
    default_service_cache,
    start_server,
)
from repro.serve import app as serve_app

SMALL = dict(n_samples=8, num_cores=2)
END_DONE = {"event": "end", "status": "done", "error": None}
#: client latency (POST to ``end``) may exceed the job span by this much
END_SLACK_S = 0.010


def three_runs(name: str, seed: int) -> SweepSpec:
    """A served sweep's shape: three runs on one seeded ECG recording."""
    return SweepSpec(name, (
        RunRequest("SQRT32", WITH_SYNC, seed=seed, **SMALL),
        RunRequest("SQRT32", WITHOUT_SYNC, seed=seed, **SMALL),
        RunRequest("MRPDLN", WITH_SYNC, seed=seed, **SMALL),
    ))


def simulated(payload: dict) -> dict:
    """The simulated result, without execution bookkeeping."""
    return payload["run"]


def eventually(predicate, timeout: float) -> bool:
    deadline = time.time() + timeout
    while not predicate():
        if time.time() > deadline:
            return False
        time.sleep(0.005)
    return True


def wait_for(predicate, timeout=30.0, message="condition"):
    if not eventually(predicate, timeout):
        raise AssertionError(f"timed out waiting for {message}")


def persisted(service: SweepService, job_id: str) -> bool:
    return (service.state_dir / "jobs" / job_id / "job.json").is_file()


def job_span_cover(doc: dict) -> tuple[float, float]:
    """(job span in seconds, share of it the job's stage spans cover)."""
    spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    (job,) = [s for s in spans if s["cat"] == "job"]
    lo, hi = job["ts"], job["ts"] + job["dur"]
    children = sorted(
        (max(s["ts"], lo), min(s["ts"] + s["dur"], hi)) for s in spans
        if s["args"].get("parent_span_id") == job["args"]["span_id"])
    covered, reach = 0.0, lo
    for begin, end in children:
        if end > reach:
            covered += end - max(begin, reach)
            reach = end
    return job["dur"] / 1e6, covered / job["dur"]


def documents(client: ServeClient, job_id: str):
    """Everything the API serves about one job."""
    return (client.job(job_id), client.trace(job_id),
            list(client.events(job_id)))


class TestPushedStream:
    #: fresh services the latency check may try (see below)
    ATTEMPTS = 5

    def timed(self, service, client, spec):
        """Submit, stream to ``end``; (job id, client seconds, trace)."""
        start = time.perf_counter()
        job_id = client.submit(spec)["id"]
        events = list(client.events(job_id))
        latency = time.perf_counter() - start
        assert events[-1] == END_DONE
        assert sorted(row["index"] for row in events[:-1]) == [0, 1, 2]
        # the trace is final once job.json is on disk
        wait_for(lambda: persisted(service, job_id), message="job.json")
        return job_id, latency, client.trace(job_id)

    def test_end_follows_the_job_span_cold_and_warm(self, tmp_path):
        # A timing check on a shared host: a busy neighbour can keep a
        # thread off the CPU for 10 ms (with both CPUs of a 2-CPU host
        # saturated elsewhere, 5-9% of warm submissions went past it),
        # so the check gets a few attempts, each on a fresh service.
        # A 50 ms poll delays the cold submission and a third or more
        # of the warm ones by up to 50 ms; it failed every attempt.
        spec = three_runs("push", 1801)
        for attempt in range(self.ATTEMPTS):
            root = tmp_path / f"attempt-{attempt}"
            service = SweepService(cache=default_service_cache(root / "c"),
                                   state_dir=root / "state")
            with service, start_server(service) as handle:
                client = ServeClient(handle.base_url)
                cold_id, latency, trace = self.timed(service, client, spec)
                span, cold_cover = job_span_cover(trace)
                gaps = [latency - span]
                covers = []
                for _ in range(10):
                    job_id, latency, trace = self.timed(service, client,
                                                        spec)
                    span, cover = job_span_cover(trace)
                    gaps.append(latency - span)
                    covers.append(cover)
                    assert {run["source"] for run in
                            client.job(job_id)["runs"]} == {"cache"}
                runs = client.job(cold_id)["runs"]
                payloads = [client.run_payload(run["digest"])
                            for run in runs]
            warm_cover = sum(covers) / len(covers)
            if (max(gaps) < END_SLACK_S and cold_cover >= 0.90
                    and warm_cover >= 0.80):
                break
        assert max(gaps) < END_SLACK_S, gaps
        assert cold_cover >= 0.90, cold_cover
        assert warm_cover >= 0.80, covers

        with SweepExecutor(jobs=0, cache=None) as direct:
            outcomes = direct.run(spec)
        for run, payload, outcome in zip(runs, payloads, outcomes):
            assert run["digest"] == outcome.digest
            assert simulated(payload) == simulated(outcome.payload)

    def test_disconnected_client_leaves_no_waker(self, tmp_path):
        service = SweepService(cache=MemoryCache(),
                               state_dir=tmp_path / "state")
        gate = threading.Semaphore(0)
        real_execute = service.executor._execute

        def gated_execute(unique, trace_id=None):
            """One run per gate release, each row streamed as it lands."""
            for pending in unique:
                assert gate.acquire(timeout=30)
                yield from real_execute([pending], trace_id)

        service.executor._execute = gated_execute
        spec = SweepSpec("gated", tuple(
            RunRequest("SQRT32", WITH_SYNC, seed=1900 + i, **SMALL)
            for i in range(8)))
        with service, start_server(service) as handle:
            client = ServeClient(handle.base_url)
            job_id = client.submit(spec)["id"]
            job = service.job(job_id)
            gate.release()
            stream = client.events(job_id)
            assert next(stream)["index"] == 0
            assert job.watchers == 1
            stream.close()                 # the client goes away

            # the writer notices at a later write to the dead socket
            for _ in range(4):
                if job.watchers == 0:
                    break
                released = job.completed + 1
                gate.release()
                wait_for(lambda: job.completed >= released,
                         message="next row")
                eventually(lambda: job.watchers == 0, timeout=1.0)
            assert job.watchers == 0
            assert not job.terminal

            for _ in range(len(spec)):
                gate.release()
            assert client.healthz()["ok"]
            events = list(client.events(job_id))
            assert events[-1] == END_DONE
            assert [row["index"] for row in events[:-1]] == \
                list(range(len(spec)))
            assert job.watchers == 0

        with SweepExecutor(jobs=0, cache=None) as direct:
            outcomes = direct.run(spec)
        assert [row["digest"] for row in events[:-1]] == \
            [outcome.digest for outcome in outcomes]
        assert [simulated(outcome.payload) for outcome in job.outcomes] \
            == [simulated(outcome.payload) for outcome in outcomes]


class TestBoundedTable:
    @pytest.fixture
    def served(self, tmp_path):
        service = SweepService(cache=MemoryCache(),
                               state_dir=tmp_path / "state", concurrency=4)
        with service, start_server(service) as handle:
            yield SimpleNamespace(service=service, handle=handle,
                                  client=ServeClient(handle.base_url))

    def test_dropped_jobs_read_back_unchanged(self, served):
        service, client = served.service, served.client
        bound = serve_app.RETAINED_TERMINAL_JOBS
        spec = three_runs("retained", 2001)
        first = client.submit(spec)["id"]
        assert list(client.events(first))[-1] == END_DONE
        wait_for(lambda: persisted(service, first), message="job.json")
        before = documents(client, first)

        later = [service.submit(spec).id for _ in range(bound + 3)]
        wait_for(lambda: all(persisted(service, job_id)
                             for job_id in later), message="every job.json")
        wait_for(lambda: len(service.jobs) == bound, message="eviction")
        assert all(job.terminal for job in service.jobs.values())
        assert first not in service.jobs
        assert isinstance(service.job(first), serve_app.StoredJob)
        assert documents(client, first) == before

        jobs = client.metrics()["service"]["jobs"]
        assert jobs["submitted"] == jobs["done"] == bound + 4
        assert jobs["submitted"] == jobs["queued"] + jobs["running"] + \
            jobs["done"] + jobs["failed"]

        payloads = {run["digest"]: client.run_payload(run["digest"])
                    for run in before[0]["runs"]}
        with SweepExecutor(jobs=0, cache=None) as direct:
            for outcome in direct.run(spec):
                assert simulated(payloads[outcome.digest]) == \
                    simulated(outcome.payload)

    def test_racing_streams_and_evictions_lose_nothing(self, served,
                                                       monkeypatch):
        # more client and worker threads than cores, a short switch
        # interval and a small bound, so evictions race open streams
        service = served.service
        monkeypatch.setattr(serve_app, "RETAINED_TERMINAL_JOBS", 4)
        client = ServeClient(served.client.base_url, timeout=20.0)
        spec = three_runs("racing", 2201)
        assert list(client.events(client.submit(spec)["id"]))[-1] == END_DONE
        streams, errors = [], []

        def submit_and_stream():
            try:
                for _ in range(6):
                    job_id = client.submit(spec)["id"]
                    streams.append((job_id, list(client.events(job_id))))
            except Exception as exc:   # noqa: BLE001 — reported below
                errors.append(exc)

        threads = [threading.Thread(target=submit_and_stream)
                   for _ in range(6)]
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
        assert len(streams) == 36
        for job_id, events in streams:
            assert events[-1] == END_DONE
            assert sorted(row["index"] for row in events[:-1]) == [0, 1, 2]
        wait_for(lambda: len(service.jobs) == 4, message="eviction")
        assert client.metrics()["service"]["jobs"] == {
            "submitted": 37, "queued": 0, "running": 0, "done": 37,
            "failed": 0}
        assert all(service.job(job_id).status == "done"
                   for job_id, _ in streams)

    @pytest.mark.parametrize("route", ["", "/trace", "/events"])
    def test_malformed_ids_never_touch_the_filesystem(self, served,
                                                      monkeypatch, route):
        service = served.service
        job_id = service.submit(three_runs("ids", 2101)).id
        wait_for(lambda: persisted(service, job_id), message="job.json")
        # a document one ``..`` above the jobs directory
        planted = service.state_dir / "job.json"
        planted.write_text((service.state_dir / "jobs" / job_id
                            / "job.json").read_text())
        loads = []
        real_load = serve_app.StoredJob.load

        def spy(directory):
            loads.append(directory)
            return real_load(directory)

        monkeypatch.setattr(serve_app.StoredJob, "load", staticmethod(spy))

        def status(path_id):
            connection = http.client.HTTPConnection(
                served.handle.host, served.handle.port, timeout=30)
            try:
                connection.request("GET", f"/v1/sweeps/{path_id}{route}")
                response = connection.getresponse()
                body = response.read()
            finally:
                connection.close()
            if response.status == 404:
                assert json.loads(body)["error"]["code"] == "not_found"
            return response.status

        for bad in ("..", "%2E%2E", "..%2F..", "..%2F..%2Fjobs%2F" + job_id,
                    "ABCDEF" + job_id[6:], job_id[:-1], job_id + "0", "nope"):
            assert status(bad) == 404, bad
        assert loads == []
        # the control: a well-formed unknown id is looked up on disk
        assert status("0" * 12) == 404
        assert loads == [service.state_dir / "jobs" / ("0" * 12)]
        assert status(job_id) == 200
