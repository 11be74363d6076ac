"""Minimal asyncio HTTP/1.1 layer for the sweep service.

The service speaks a deliberately small slice of HTTP — JSON request
bodies, JSON responses, one streamed (chunked) endpoint — so instead of
pulling in a framework it runs on ``asyncio.start_server`` plus the
~200 lines here: a request parser, a path-pattern router and a response
writer.  Connections are one-shot (``Connection: close``), which every
stdlib client handles and which keeps the state machine trivial.

Handlers are ``async`` callables taking a :class:`Request` (plus named
path parameters) and returning a :class:`Response`; raising
:class:`ApiError` anywhere produces the documented JSON error envelope
(``docs/service.md``)::

    {"error": {"status": 404, "code": "not_found", "message": "..."}}
"""

from __future__ import annotations

import asyncio
import json
import logging
import re
import time
import uuid
from dataclasses import dataclass, field
from urllib.parse import parse_qsl, unquote, urlsplit

from ..obs.context import TraceContext
from ..obs.log import emit

#: request bodies beyond this are rejected with 413 (a full 8-channel
#: explicit-input sweep spec is ~1 MB; 64 MB is generous headroom)
MAX_BODY_BYTES = 64 * 1024 * 1024
MAX_HEADER_BYTES = 64 * 1024

_REASONS = {
    200: "OK", 201: "Created", 202: "Accepted", 204: "No Content",
    400: "Bad Request", 404: "Not Found", 405: "Method Not Allowed",
    409: "Conflict", 413: "Payload Too Large", 422: "Unprocessable Entity",
    500: "Internal Server Error", 503: "Service Unavailable",
}


class ApiError(Exception):
    """An error the handler wants rendered as the JSON error envelope."""

    def __init__(self, status: int, code: str, message: str):
        super().__init__(message)
        self.status = status
        self.code = code
        self.message = message

    def envelope(self) -> dict:
        return {"error": {"status": self.status, "code": self.code,
                          "message": self.message}}


@dataclass
class Request:
    """One parsed HTTP request.

    :ivar trace: the client's :class:`~repro.obs.context.TraceContext`
        when a well-formed ``traceparent`` header arrived; ``None``
        otherwise (the service starts a fresh trace).
    :ivar route: the route *pattern* that matched (e.g.
        ``/v1/sweeps/{job_id}``), set by :meth:`Router.dispatch` —
        bounded-cardinality, unlike :attr:`path`, so it is what metric
        labels use.
    """

    method: str
    path: str
    query: dict[str, str]
    headers: dict[str, str]            # keys lower-cased
    body: bytes = b""
    trace: TraceContext | None = None
    route: str | None = None

    def json(self):
        """The body parsed as JSON; 400 ``bad_json`` when it isn't."""
        if not self.body:
            raise ApiError(400, "bad_json", "request body is empty")
        try:
            return json.loads(self.body)
        except ValueError as exc:
            raise ApiError(400, "bad_json",
                           f"request body is not valid JSON: {exc}")


@dataclass
class Response:
    """One response: a JSON document, raw bytes, or a chunked stream.

    :ivar payload: JSON-shaped object (serialized with sorted keys);
        ignored when ``stream`` or ``text`` is set.
    :ivar stream: async generator of ``bytes`` chunks; sent with
        ``Transfer-Encoding: chunked`` and closed once the response
        ends, also when the client went away mid-stream.
    :ivar text: raw pre-rendered body (e.g. the Prometheus exposition
        format); set ``content_type`` to match.
    """

    payload: object = None
    status: int = 200
    headers: dict[str, str] = field(default_factory=dict)
    stream: object = None
    content_type: str = "application/json"
    text: str | None = None

    def body_bytes(self) -> bytes:
        if self.text is not None:
            return self.text.encode()
        if self.payload is None:
            return b""
        return (json.dumps(self.payload, sort_keys=True) + "\n").encode()


class Router:
    """Method + path-pattern dispatch with ``{name}`` captures.

    Patterns are segment-wise: ``/v1/sweeps/{job_id}/events`` matches
    exactly four segments and hands ``job_id`` to the handler as a
    keyword argument (URL-unquoted).
    """

    def __init__(self):
        self._routes: list[tuple[str, re.Pattern, str, object]] = []

    def add(self, method: str, pattern: str, handler) -> None:
        regex = re.compile(
            "^" + re.sub(r"\{(\w+)\}", r"(?P<\1>[^/]+)", pattern) + "$")
        self._routes.append((method.upper(), regex, pattern, handler))

    async def dispatch(self, request: Request) -> Response:
        allowed: list[str] = []
        for method, regex, pattern, handler in self._routes:
            match = regex.match(request.path)
            if match is None:
                continue
            if method != request.method:
                allowed.append(method)
                continue
            params = {key: unquote(value)
                      for key, value in match.groupdict().items()}
            request.route = pattern
            return await handler(request, **params)
        if allowed:
            raise ApiError(405, "method_not_allowed",
                           f"{request.path} supports {sorted(set(allowed))}, "
                           f"not {request.method}")
        raise ApiError(404, "not_found", f"no route for {request.path}")


async def read_request(reader: asyncio.StreamReader) -> Request:
    """Parse one request off the stream; :class:`ApiError` on bad input."""
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        raise ApiError(400, "bad_request", "truncated request") from exc
    except asyncio.LimitOverrunError as exc:
        raise ApiError(413, "headers_too_large",
                       "request headers exceed the size limit") from exc
    if len(head) > MAX_HEADER_BYTES:
        raise ApiError(413, "headers_too_large",
                       "request headers exceed the size limit")
    lines = head.decode("latin-1").split("\r\n")
    try:
        method, target, _version = lines[0].split(" ", 2)
    except ValueError as exc:
        raise ApiError(400, "bad_request",
                       f"malformed request line {lines[0]!r}") from exc
    headers: dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    parts = urlsplit(target)
    query = dict(parse_qsl(parts.query))
    body = b""
    length = headers.get("content-length")
    if length is not None:
        try:
            length = int(length)
        except ValueError as exc:
            raise ApiError(400, "bad_request",
                           "malformed Content-Length") from exc
        if length > MAX_BODY_BYTES:
            raise ApiError(413, "body_too_large",
                           f"request body exceeds {MAX_BODY_BYTES} bytes")
        body = await reader.readexactly(length)
    return Request(method.upper(), parts.path or "/", query, headers, body,
                   trace=TraceContext.from_traceparent(
                       headers.get("traceparent")))


async def write_response(writer: asyncio.StreamWriter,
                         response: Response, before_end) -> None:
    """Serialize one response (fixed-length or chunked) and flush it.

    :param before_end: called just before the response's final bytes are
        written (the whole of a fixed-length response, a stream's
        terminating chunk), so whatever it records is in place before
        the client can see the end of the response.
    """
    status = response.status
    reason = _REASONS.get(status, "Unknown")
    headers = {"Connection": "close",
               "Content-Type": response.content_type}
    headers.update(response.headers)
    if response.stream is None:
        body = response.body_bytes()
        headers["Content-Length"] = str(len(body))
        before_end()
        writer.write(_head(status, reason, headers) + body)
        await writer.drain()
        return
    headers["Transfer-Encoding"] = "chunked"
    writer.write(_head(status, reason, headers))
    try:
        await writer.drain()
        async for chunk in response.stream:
            if not chunk:
                continue
            writer.write(f"{len(chunk):x}\r\n".encode() + chunk + b"\r\n")
            await writer.drain()
        before_end()
        writer.write(b"0\r\n\r\n")
        await writer.drain()
    finally:
        await response.stream.aclose()


def _head(status: int, reason: str, headers: dict[str, str]) -> bytes:
    lines = [f"HTTP/1.1 {status} {reason}"]
    lines.extend(f"{name}: {value}" for name, value in headers.items())
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")


def make_handler(router: Router, observer=None):
    """The ``asyncio.start_server`` connection callback for a router.

    :param observer: optional
        :class:`~repro.obs.instruments.ServiceInstruments`; when set,
        every request updates the HTTP counters / latency histogram /
        in-flight gauge.  A request is counted just before the final
        bytes of its response are written, so a client that has read
        its whole response finds it counted; its latency runs up to
        that point.
    """

    async def handle(reader: asyncio.StreamReader,
                     writer: asyncio.StreamWriter) -> None:
        started = time.perf_counter()
        request: Request | None = None
        if observer is not None:
            observer.http_inflight.inc()
        try:
            try:
                request = await read_request(reader)
                response = await router.dispatch(request)
            except ApiError as exc:
                response = Response(exc.envelope(), status=exc.status)
            except Exception as exc:   # noqa: BLE001 — never kill the server
                # An unexpected (non-ApiError) failure: the envelope
                # carries an error_id the operator can grep the server
                # log for, where the full traceback lands.
                error_id = uuid.uuid4().hex[:12]
                trace_id = (request.trace.trace_id
                            if request is not None and request.trace else None)
                emit("http.error", level=logging.ERROR, exc_info=exc,
                     error_id=error_id, trace_id=trace_id,
                     method=request.method if request else None,
                     path=request.path if request else None,
                     error=f"{type(exc).__name__}: {exc}")
                envelope = ApiError(500, "internal_error",
                                    f"{type(exc).__name__}: {exc}").envelope()
                envelope["error"]["error_id"] = error_id
                response = Response(envelope, status=500)
            if request is not None and request.trace is not None:
                response.headers.setdefault("x-trace-id",
                                            request.trace.trace_id)
            method = request.method if request is not None else "?"
            route = (request.route or request.path) if request else "?"
            elapsed = 0.0

            def before_end() -> None:
                nonlocal elapsed
                elapsed = time.perf_counter() - started
                if observer is not None:
                    observer.observe_http(method, route, response.status,
                                          elapsed)

            await write_response(writer, response, before_end)
            emit("http.access", method=method,
                 path=request.path if request else None,
                 route=request.route if request else None,
                 status=response.status,
                 duration_ms=round(elapsed * 1000, 3),
                 trace_id=(request.trace.trace_id
                           if request is not None and request.trace else None))
        except (ConnectionError, asyncio.CancelledError):
            pass                       # client went away mid-response
        finally:
            if observer is not None:
                observer.http_inflight.dec()
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    return handle
