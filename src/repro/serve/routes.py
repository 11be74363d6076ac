"""HTTP endpoint handlers: the ``/v1`` API surface.

Every route is documented request-by-request in ``docs/service.md``;
this module only translates between HTTP and the
:class:`~repro.serve.app.SweepService` — validation errors become the
standard error envelope via :class:`~repro.serve.http.ApiError`, wire
documents are checked with :mod:`repro.exec.wire` before anything
touches the job table.

========  ==========================  ==================================
method    path                        purpose
========  ==========================  ==================================
GET       ``/v1/healthz``             liveness + build/wire versions
GET       ``/v1/metrics``             metrics snapshot (JSON) or, with
                                      ``?format=prometheus``, the
                                      Prometheus text exposition
POST      ``/v1/sweeps``              submit a ``sweep_spec`` document
GET       ``/v1/sweeps/{id}``         job status, counts, per-run rows
GET       ``/v1/sweeps/{id}/trace``   the request's span tree
                                      (Perfetto trace-event JSON)
GET       ``/v1/sweeps/{id}/events``  chunked stream of run-row lines
GET       ``/v1/runs/{digest}``       one cached result, by digest
PUT       ``/v1/runs/{digest}``       peer write-through into the cache
========  ==========================  ==================================

The events stream is pushed, not polled: it replays ``runs.jsonl`` from
the start, then awaits the job's wakeup (set when a row lands and when
the job ends) and sends what is new.  ``runs.jsonl`` stays the durable
record, so re-requesting the stream resumes it.  A job id that is not
12 lowercase hex characters is a 404 before anything reads the disk;
a terminal job dropped from the service's table is answered from its
directory (see :meth:`~repro.serve.app.SweepService.job`).
"""

from __future__ import annotations

import asyncio
import json

from ..exec.wire import (
    WireError,
    payload_from_wire,
    spec_from_wire,
    trace_from_wire,
)
from ..kernels import BENCHMARKS
from .app import SweepService
from .http import ApiError, Request, Response, Router

_DIGEST_CHARS = set("0123456789abcdef")


def _check_digest(digest: str) -> str:
    if len(digest) != 64 or not set(digest) <= _DIGEST_CHARS:
        raise ApiError(400, "bad_digest",
                       "digest must be 64 lowercase hex characters")
    return digest


async def _events(job):
    """The job's ``runs.jsonl`` rows as they land, then the end marker.

    The waker is registered for the stream's whole life and removed in
    ``finally``, which also runs when the writer closes the stream
    because the client went away.
    """
    runs_path = job.directory / "runs.jsonl"
    offset = 0
    wake = asyncio.Event()
    job.watch(asyncio.get_running_loop(), wake)
    try:
        while True:
            wake.clear()               # before reading: no wakeup is lost
            terminal = job.terminal    # read *before* draining rows
            if runs_path.is_file():
                with open(runs_path, "rb") as handle:
                    handle.seek(offset)
                    fresh = handle.read()
                complete = fresh[:fresh.rfind(b"\n") + 1]
                if complete:
                    offset += len(complete)
                    yield complete
            if terminal:
                break
            await wake.wait()
    finally:
        job.unwatch(wake)
    end = {"event": "end", "status": job.status, "error": job.error}
    yield (json.dumps(end, sort_keys=True) + "\n").encode()


def build_router(service: SweepService) -> Router:
    """Wire every ``/v1`` route onto a service instance."""
    router = Router()

    async def healthz(request: Request) -> Response:
        return Response(service.health())

    async def metrics(request: Request) -> Response:
        fmt = request.query.get("format", "json")
        if fmt == "prometheus":
            return Response(
                text=service.prometheus_text(),
                content_type="text/plain; version=0.0.4; charset=utf-8")
        if fmt != "json":
            raise ApiError(400, "bad_format",
                           f"unknown metrics format {fmt!r} "
                           "(have: json, prometheus)")
        return Response(service.metrics_registry().snapshot())

    async def submit_sweep(request: Request) -> Response:
        doc = request.json()
        try:
            spec = spec_from_wire(doc)
        except WireError as exc:
            raise ApiError(400, "bad_wire_document", str(exc))
        for index, run in enumerate(spec.requests):
            if run.benchmark not in BENCHMARKS:
                raise ApiError(
                    422, "unknown_benchmark",
                    f"requests[{index}]: unknown benchmark "
                    f"{run.benchmark!r} (have {sorted(BENCHMARKS)})")
        # header beats wire field (the header is per-hop, the wire
        # field the fallback for header-stripping transports)
        trace = request.trace or trace_from_wire(doc)
        job = service.submit(spec, trace=trace, via="http POST /v1/sweeps")
        return Response(job.to_json(), status=202,
                        headers={"Location": f"/v1/sweeps/{job.id}",
                                 "x-trace-id": job.trace_id})

    def _job(job_id: str):
        job = service.job(job_id)
        if job is None:
            raise ApiError(404, "not_found", f"no sweep job {job_id!r}")
        return job

    async def sweep_status(request: Request, job_id: str) -> Response:
        return Response(_job(job_id).to_json(runs=True))

    async def sweep_trace(request: Request, job_id: str) -> Response:
        return Response(_job(job_id).trace_document())

    async def sweep_events(request: Request, job_id: str) -> Response:
        return Response(stream=_events(_job(job_id)),
                        content_type="application/x-ndjson")

    async def get_run(request: Request, digest: str) -> Response:
        payload = service.run_payload(_check_digest(digest))
        if payload is None:
            raise ApiError(404, "not_found",
                           f"no cached result for digest {digest[:12]}…")
        from ..exec.wire import payload_to_wire

        return Response(payload_to_wire(digest, payload))

    async def put_run(request: Request, digest: str) -> Response:
        _check_digest(digest)
        try:
            sent, payload = payload_from_wire(request.json())
        except WireError as exc:
            raise ApiError(400, "bad_wire_document", str(exc))
        if sent != digest:
            raise ApiError(409, "digest_mismatch",
                           "document digest does not match the URL")
        service.store_payload(digest, payload)
        return Response(status=204, payload=None)

    router.add("GET", "/v1/healthz", healthz)
    router.add("GET", "/v1/metrics", metrics)
    router.add("POST", "/v1/sweeps", submit_sweep)
    router.add("GET", "/v1/sweeps/{job_id}", sweep_status)
    router.add("GET", "/v1/sweeps/{job_id}/trace", sweep_trace)
    router.add("GET", "/v1/sweeps/{job_id}/events", sweep_events)
    router.add("GET", "/v1/runs/{digest}", get_run)
    router.add("PUT", "/v1/runs/{digest}", put_run)
    return router
