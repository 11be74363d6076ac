"""End-to-end observability: one submission -> span tree + logs + metrics.

The acceptance invariant of the observability plane, asserted here:
a single client submission produces

a. a span tree that validates against the Perfetto checker and names
   every stage (http -> job -> queue -> digest -> coalesce -> lock ->
   cache -> execute -> run -> manifest),
b. structured log lines sharing the submission's trace id, and
c. exactly one new observation in the request-latency histogram.

Plus the crash-handoff protocol: a follower inherits a digest whose
owner died mid-run, logged and span-linked exactly once.
"""

import asyncio
import http.client
import importlib.util
import io
import json
import logging
import sys
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.exec import MemoryCache, SweepSpec
from repro.kernels import WITH_SYNC
from repro.obs import TraceContext, configure_logging, get_logger
from repro.serve import (
    ServeClient,
    ServiceError,
    SweepService,
    default_service_cache,
    start_server,
)
from repro.serve.http import Response, Router, make_handler
from repro.telemetry import check_trace

_SPEC = importlib.util.spec_from_file_location(
    "check_prom",
    Path(__file__).resolve().parents[2] / "scripts" / "check_prom.py")
check_prom = importlib.util.module_from_spec(_SPEC)
sys.modules.setdefault("check_prom", check_prom)
_SPEC.loader.exec_module(check_prom)

STAGES = {"http", "job", "queue", "digest", "coalesce", "lock", "cache",
          "execute", "run", "manifest"}
LOG_EVENTS = {"job.submit", "job.start", "coalesce.claim",
              "run.outcome", "job.done"}


def spec_for(seed: int) -> SweepSpec:
    return SweepSpec.grid(f"obs-{seed}", ("SQRT32",), (WITH_SYNC,),
                          samples=(8,), seed=seed, num_cores=2)


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    root = tmp_path_factory.mktemp("serve-obs")
    service = SweepService(cache=default_service_cache(root / "cache"),
                           state_dir=root / "state", concurrency=4)
    with service, start_server(service) as handle:
        yield SimpleNamespace(service=service, handle=handle,
                              client=ServeClient(handle.base_url))


@pytest.fixture
def log_capture():
    buffer = io.StringIO()
    handler = configure_logging(json_output=True, level="debug",
                                stream=buffer)
    yield buffer
    get_logger().removeHandler(handler)
    get_logger().setLevel(logging.NOTSET)


def log_docs(buffer) -> list:
    return [json.loads(line) for line in
            buffer.getvalue().splitlines() if line]


def wait_for(predicate, timeout=10.0, message="condition"):
    deadline = time.time() + timeout
    while time.time() < deadline:
        if predicate():
            return
        time.sleep(0.02)
    raise AssertionError(f"timed out waiting for {message}")


class TestSpanTree:
    def test_single_submission_produces_a_full_stage_tree(self, served):
        resource = served.client.submit(spec_for(9101))
        final = served.client.wait(resource["id"])
        assert final["status"] == "done"
        trace = served.client.last_trace
        assert final["trace_id"] == trace.trace_id

        doc = served.client.trace(resource["id"])
        check_trace(doc)                       # the shared Perfetto gate
        assert doc["otherData"]["trace_id"] == trace.trace_id
        spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert {e["cat"] for e in spans} >= STAGES
        by_name = {e["name"]: e for e in spans}
        # the tree is rooted in the client's propagated span
        http = by_name["http POST /v1/sweeps"]
        assert http["args"]["parent_span_id"] == trace.span_id
        job = by_name[f"job {resource['name']}"]
        assert job["args"]["parent_span_id"] == http["args"]["span_id"]
        # every span belongs to the client's trace
        assert {e["args"]["trace_id"] for e in spans} == {trace.trace_id}
        run_spans = [e for e in spans if e["cat"] == "run"]
        assert len(run_spans) == final["total"]
        assert all(e["args"]["digest"] for e in run_spans)

    def test_trace_is_persisted_next_to_the_manifest(self, served):
        resource = served.client.submit(spec_for(9102))
        served.client.wait(resource["id"])
        job = served.service.job(resource["id"])
        wait_for(lambda: (job.directory / "trace.json").exists(),
                 message="trace.json")
        persisted = json.loads((job.directory / "trace.json").read_text())
        check_trace(persisted)
        assert persisted["otherData"]["job_id"] == resource["id"]
        manifest = json.loads(
            (job.directory / "manifest.json").read_text())
        assert manifest["trace_id"] == job.trace_id
        # phase timings need no flag: the job's executor run timed them
        for phase in ("cache", "execute"):
            timing = manifest["phases"][phase]
            assert timing["wall_seconds"] >= 0
            assert timing["cpu_seconds"] >= 0

    def test_unknown_job_trace_is_404(self, served):
        with pytest.raises(ServiceError) as excinfo:
            served.client.trace("0" * 12)
        assert excinfo.value.status == 404

    def test_server_minted_trace_when_client_sends_none(self, served):
        connection = http.client.HTTPConnection(served.handle.host,
                                               served.handle.port,
                                               timeout=30)
        try:
            connection.request(
                "POST", "/v1/sweeps",
                body=json.dumps(spec_for(9103).to_wire()).encode(),
                headers={"Content-Type": "application/json"})
            response = connection.getresponse()
            resource = json.loads(response.read())
            assert response.status == 202
            header = response.headers.get("x-trace-id")
        finally:
            connection.close()
        # nothing propagated: the server mints a root trace itself —
        # every job is traced, and the header tells the client its id
        assert len(resource["trace_id"]) == 32
        assert header == resource["trace_id"]
        served.client.wait(resource["id"])
        doc = served.client.trace(resource["id"])
        check_trace(doc)
        assert doc["otherData"]["trace_id"] == resource["trace_id"]

    def test_traceparent_header_is_echoed_as_x_trace_id(self, served):
        ctx = TraceContext.new()
        connection = http.client.HTTPConnection(served.handle.host,
                                               served.handle.port,
                                               timeout=30)
        try:
            connection.request(
                "POST", "/v1/sweeps",
                body=json.dumps(spec_for(9104).to_wire()).encode(),
                headers={"Content-Type": "application/json",
                         "traceparent": ctx.traceparent()})
            response = connection.getresponse()
            resource = json.loads(response.read())
            assert response.headers["x-trace-id"] == ctx.trace_id
        finally:
            connection.close()
        assert resource["trace_id"] == ctx.trace_id
        served.client.wait(resource["id"])

    def test_wire_trace_field_used_when_no_header(self, served):
        ctx = TraceContext.new()
        doc = spec_for(9105).to_wire()
        doc["trace"] = ctx.to_wire()
        resource = served.client._request("POST", "/v1/sweeps", doc)
        assert resource["trace_id"] == ctx.trace_id
        served.client.wait(resource["id"])


class TestStructuredLogs:
    def test_log_lines_share_the_request_trace_id(self, served,
                                                  log_capture):
        resource = served.client.submit(spec_for(9201))
        served.client.wait(resource["id"])
        trace_id = served.client.last_trace.trace_id
        wait_for(lambda: any(doc.get("event") == "job.done"
                             and doc.get("trace_id") == trace_id
                             for doc in log_docs(log_capture)),
                 message="job.done log line")
        matching = [doc for doc in log_docs(log_capture)
                    if doc.get("trace_id") == trace_id]
        assert {doc["event"] for doc in matching} >= LOG_EVENTS
        outcome = next(doc for doc in matching
                       if doc["event"] == "run.outcome")
        assert outcome["source"] in ("executed", "cache", "coalesced")
        assert len(outcome["digest"]) == 12

    def test_http_access_lines_carry_route_and_status(self, served,
                                                      log_capture):
        served.client.healthz()
        wait_for(lambda: any(doc.get("event") == "http.access"
                             and doc.get("route") == "/v1/healthz"
                             for doc in log_docs(log_capture)),
                 message="http.access log line")
        access = next(doc for doc in log_docs(log_capture)
                      if doc.get("event") == "http.access")
        assert access["status"] == 200
        assert access["method"] == "GET"
        assert "duration_ms" in access


class TestRequestLatencyHistogram:
    def test_exactly_one_observation_per_submission(self, served):
        histogram = served.service.instruments.request_latency
        before = histogram.count()
        resource = served.client.submit(spec_for(9301))
        served.client.wait(resource["id"])
        wait_for(lambda: histogram.count() > before,
                 message="latency observation")
        assert histogram.count() == before + 1
        text = served.client.metrics_prometheus()
        assert (f"repro_sweep_request_latency_seconds_count "
                f"{before + 1}") in text


class TestPrometheusEndpoint:
    def test_exposition_is_valid_and_complete(self, served):
        resource = served.client.submit(spec_for(9401))
        served.client.wait(resource["id"])
        text = served.client.metrics_prometheus()
        problems = check_prom.check_exposition(text, require=[
            "repro_http_requests_total",
            "repro_http_request_duration_seconds",
            "repro_sweep_request_latency_seconds",
            "repro_sweep_queue_wait_seconds",
            "repro_jobs_submitted_total",
            "repro_runs_total",
            "repro_coalescer_claims_total",
            "repro_coalescer_handoffs_total",
            "repro_batch_refused_total",
            "repro_cache_requests_total",
            "repro_cache_promotions_total",
            "repro_worker_utilization",
            "repro_build_info",
            "repro_snapshot",
        ])
        assert problems == []
        # route labels are patterns, not raw paths (bounded cardinality)
        assert 'route="/v1/sweeps/{job_id}"' in text
        assert resource["id"] not in text

    def test_unknown_format_is_a_400(self, served):
        with pytest.raises(ServiceError) as excinfo:
            served.client._request("GET", "/v1/metrics?format=xml")
        assert excinfo.value.status == 400
        assert excinfo.value.code == "bad_format"

    def test_json_snapshot_gains_per_tier_cache_stats(self, served):
        snapshot = served.client.metrics()
        tiers = snapshot["cache"]["tiers"]
        assert set(tiers) >= {"memory", "disk"}
        assert set(tiers["memory"]) >= {"hits", "misses", "promotions"}
        assert "handoffs" in snapshot["coalescer"]


class TestBatchRefusedCounter:
    def test_refused_runs_surface_in_the_prometheus_plane(self, tmp_path):
        # an executed outcome whose payload carries the entry guard's
        # batch_refused reason must be counted into the metrics plane
        service = SweepService(cache=MemoryCache(),
                               state_dir=tmp_path / "state",
                               concurrency=4)
        real_execute = service.executor._execute

        def marking_execute(unique, trace_id=None):
            for position, (digest, payload, error) in enumerate(
                    real_execute(unique, trace_id)):
                if position == 0:
                    payload["batch_refused"] = "irq"
                yield digest, payload, error

        service.executor._execute = marking_execute
        with service:
            job = service.submit(spec_for(9601))
            wait_for(lambda: job.status == "done",
                     message="job completion")
            assert service._batch_refused == {"irq": 1}
            text = service.instruments.registry.render()
        assert 'repro_batch_refused_total{reason="irq"} 1' in text


class TestErrorId:
    def run_crash(self, log_capture, headers=b""):
        router = Router()

        async def boom(request):
            raise RuntimeError("kaboom")

        router.add("GET", "/boom", boom)

        async def roundtrip():
            server = await asyncio.start_server(make_handler(router),
                                                "127.0.0.1", 0)
            host, port = server.sockets[0].getsockname()[:2]
            try:
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(b"GET /boom HTTP/1.1\r\n" + headers + b"\r\n")
                await writer.drain()
                raw = await reader.read()
                writer.close()
                await writer.wait_closed()
                return raw
            finally:
                server.close()
                await server.wait_closed()

        raw = asyncio.run(roundtrip())
        envelope = json.loads(raw.partition(b"\r\n\r\n")[2])["error"]
        errors = [doc for doc in log_docs(log_capture)
                  if doc.get("event") == "http.error"]
        return envelope, errors

    def test_500_envelope_carries_an_error_id_matching_the_log(
            self, log_capture):
        envelope, errors = self.run_crash(log_capture)
        assert envelope["code"] == "internal_error"
        assert len(envelope["error_id"]) == 12
        (logged,) = errors
        assert logged["error_id"] == envelope["error_id"]
        assert "RuntimeError: kaboom" in logged["traceback"]
        assert logged["level"] == "error"

    def test_crash_log_carries_the_request_trace_id(self, log_capture):
        ctx = TraceContext.new()
        header = f"traceparent: {ctx.traceparent()}\r\n".encode()
        envelope, errors = self.run_crash(log_capture, headers=header)
        (logged,) = errors
        assert logged["trace_id"] == ctx.trace_id


class TestCrashHandoff:
    """A follower inherits a digest whose owner died mid-run."""

    @pytest.fixture
    def crashing_service(self, tmp_path):
        service = SweepService(cache=MemoryCache(),
                               state_dir=tmp_path / "state",
                               concurrency=4)
        real_execute = service.executor._execute
        state = SimpleNamespace(crashes_left=1,
                                follower_claimed=threading.Event())

        def flaky_execute(unique, trace_id=None):
            if state.crashes_left > 0:
                state.crashes_left -= 1
                # die only once a follower is waiting on the claim, so
                # the handoff path (not a fresh claim) is exercised
                assert state.follower_claimed.wait(30.0)
                raise RuntimeError("owner died mid-run")
            return real_execute(unique, trace_id)

        service.executor._execute = flaky_execute
        with service:
            yield SimpleNamespace(service=service, state=state)

    def test_follower_inherits_and_completes(self, crashing_service,
                                             log_capture):
        service = crashing_service.service
        state = crashing_service.state
        owner_job = service.submit(spec_for(9501))
        wait_for(lambda: service.coalescer.as_dict()["owned"] >= 1,
                 message="owner claim")
        follower_job = service.submit(spec_for(9501))
        wait_for(lambda: service.coalescer.as_dict()["coalesced"] >= 1,
                 message="follower claim")
        state.follower_claimed.set()

        wait_for(lambda: owner_job.status == "failed"
                 and follower_job.status == "done",
                 message="handoff completion")
        # the owner's job failed, the follower's sweep still succeeded
        assert "owner died mid-run" in owner_job.error
        (outcome,) = follower_job.outcomes
        assert outcome.error is None and outcome.payload is not None
        assert service.coalescer.as_dict()["handoffs"] == 1

        # the handoff is logged exactly once, by the inheritor
        wait_for(lambda: any(doc.get("event") == "coalesce.handoff"
                             for doc in log_docs(log_capture)),
                 message="handoff log line")
        handoffs = [doc for doc in log_docs(log_capture)
                    if doc.get("event") == "coalesce.handoff"]
        assert len(handoffs) == 1
        assert handoffs[0]["level"] == "warning"
        assert handoffs[0]["trace_id"] == follower_job.trace_id
        assert handoffs[0]["owner_trace_id"] == owner_job.trace_id

        # ...and span-linked from the follower's wait span to the
        # dead owner's trace
        wait_span = next(
            span for span in follower_job.recorder.spans()
            if span.name.startswith("coalesce wait"))
        assert wait_span.args["outcome"] == "handoff"
        assert wait_span.links[0]["trace_id"] == owner_job.trace_id

    def test_followers_after_the_inheritor_wait_normally(
            self, crashing_service):
        service = crashing_service.service
        state = crashing_service.state
        owner_job = service.submit(spec_for(9502))
        wait_for(lambda: service.coalescer.as_dict()["owned"] >= 1,
                 message="owner claim")
        followers = [service.submit(spec_for(9502)) for _ in range(2)]
        wait_for(lambda: service.coalescer.as_dict()["coalesced"] >= 2,
                 message="follower claims")
        state.follower_claimed.set()
        wait_for(lambda: all(job.status == "done" for job in followers),
                 timeout=30.0, message="followers done")
        assert owner_job.status == "failed"
        for job in followers:
            (outcome,) = job.outcomes
            assert outcome.error is None and outcome.payload is not None
        # one inheritor, no matter how many were waiting
        assert service.coalescer.as_dict()["handoffs"] == 1
