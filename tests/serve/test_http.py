"""HTTP layer: parsing, routing, error envelope, chunked framing."""

import asyncio
import json
from types import SimpleNamespace

import pytest

from repro.serve.http import (
    ApiError,
    Request,
    Response,
    Router,
    make_handler,
    read_request,
)


def run(coroutine):
    return asyncio.run(coroutine)


async def feed(raw: bytes):
    """Parse one raw request from an in-memory stream."""
    reader = asyncio.StreamReader()
    reader.feed_data(raw)
    reader.feed_eof()
    return await read_request(reader)


class TestReadRequest:
    def test_parses_method_path_query_headers_body(self):
        raw = (b"POST /v1/sweeps?a=1&b=two HTTP/1.1\r\n"
               b"Content-Type: application/json\r\n"
               b"Content-Length: 7\r\n\r\n"
               b'{"x":1}')
        request = run(feed(raw))
        assert request.method == "POST"
        assert request.path == "/v1/sweeps"
        assert request.query == {"a": "1", "b": "two"}
        assert request.headers["content-type"] == "application/json"
        assert request.json() == {"x": 1}

    def test_truncated_request_is_400(self):
        with pytest.raises(ApiError) as excinfo:
            run(feed(b"GET /v1/healthz HTTP/1.1\r\n"))
        assert excinfo.value.status == 400

    def test_malformed_request_line_is_400(self):
        with pytest.raises(ApiError) as excinfo:
            run(feed(b"NONSENSE\r\n\r\n"))
        assert excinfo.value.status == 400

    def test_malformed_content_length_is_400(self):
        raw = b"GET / HTTP/1.1\r\nContent-Length: banana\r\n\r\n"
        with pytest.raises(ApiError) as excinfo:
            run(feed(raw))
        assert excinfo.value.status == 400

    def test_oversized_body_is_413(self, monkeypatch):
        monkeypatch.setattr("repro.serve.http.MAX_BODY_BYTES", 16)
        raw = b"PUT / HTTP/1.1\r\nContent-Length: 17\r\n\r\n" + b"x" * 17
        with pytest.raises(ApiError) as excinfo:
            run(feed(raw))
        assert excinfo.value.status == 413
        assert excinfo.value.code == "body_too_large"


class TestRequestJson:
    def test_empty_body_is_400(self):
        request = Request("POST", "/", {}, {}, b"")
        with pytest.raises(ApiError) as excinfo:
            request.json()
        assert excinfo.value.code == "bad_json"

    def test_invalid_json_is_400(self):
        request = Request("POST", "/", {}, {}, b"{nope")
        with pytest.raises(ApiError) as excinfo:
            request.json()
        assert excinfo.value.code == "bad_json"


class TestResponse:
    def test_payload_is_sorted_newline_terminated_json(self):
        body = Response({"b": 1, "a": 2}).body_bytes()
        assert body == b'{"a": 2, "b": 1}\n'

    def test_no_payload_means_empty_body(self):
        assert Response(status=204, payload=None).body_bytes() == b""


def build_router():
    router = Router()

    async def show(request, name):
        return Response({"name": name})

    async def root(request):
        return Response({"root": True})

    router.add("GET", "/things/{name}", show)
    router.add("GET", "/", root)
    return router


class TestRouter:
    def test_pattern_captures_are_passed_and_unquoted(self):
        router = build_router()
        request = Request("GET", "/things/a%20b", {}, {})
        response = run(router.dispatch(request))
        assert response.payload == {"name": "a b"}

    def test_unknown_path_is_404(self):
        with pytest.raises(ApiError) as excinfo:
            run(build_router().dispatch(Request("GET", "/nope", {}, {})))
        assert excinfo.value.status == 404

    def test_wrong_method_is_405_listing_allowed(self):
        with pytest.raises(ApiError) as excinfo:
            run(build_router().dispatch(Request("PUT", "/", {}, {})))
        assert excinfo.value.status == 405
        assert "GET" in excinfo.value.message


async def roundtrip(router, raw: bytes) -> bytes:
    """Drive one raw request through a real asyncio server socket."""
    server = await asyncio.start_server(make_handler(router),
                                        "127.0.0.1", 0)
    host, port = server.sockets[0].getsockname()[:2]
    try:
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(raw)
        await writer.drain()
        response = await reader.read()
        writer.close()
        await writer.wait_closed()
        return response
    finally:
        server.close()
        await server.wait_closed()


class TestWireFraming:
    def test_fixed_length_response_with_error_envelope(self):
        raw = run(roundtrip(build_router(),
                            b"GET /missing HTTP/1.1\r\n\r\n"))
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 404 Not Found")
        assert b"Content-Length:" in head
        envelope = json.loads(body)["error"]
        assert envelope["status"] == 404 and envelope["code"] == "not_found"

    def test_handler_crash_is_a_500_envelope_not_a_dead_socket(self):
        router = Router()

        async def boom(request):
            raise RuntimeError("kaboom")

        router.add("GET", "/boom", boom)
        raw = run(roundtrip(router, b"GET /boom HTTP/1.1\r\n\r\n"))
        assert raw.startswith(b"HTTP/1.1 500")
        envelope = json.loads(raw.partition(b"\r\n\r\n")[2])["error"]
        assert "kaboom" in envelope["message"]

    def test_chunked_stream_is_framed_and_terminated(self):
        router = Router()

        async def stream_handler(request):
            async def chunks():
                yield b"first\n"
                yield b""          # empty chunks must not end the stream
                yield b"second\n"

            return Response(stream=chunks(),
                            content_type="application/x-ndjson")

        router.add("GET", "/stream", stream_handler)
        raw = run(roundtrip(router, b"GET /stream HTTP/1.1\r\n\r\n"))
        head, _, body = raw.partition(b"\r\n\r\n")
        assert b"Transfer-Encoding: chunked" in head
        assert body == (b"6\r\nfirst\n\r\n"
                        b"7\r\nsecond\n\r\n"
                        b"0\r\n\r\n")


class CountingObserver:
    """The observer surface ``make_handler`` uses, counting requests."""

    def __init__(self):
        self.http_inflight = SimpleNamespace(inc=lambda: None,
                                             dec=lambda: None)
        self.observed = []

    def observe_http(self, method, route, status, seconds):
        self.observed.append((method, route, status))


class RecordingWriter:
    """A stream writer that records, with every write, how many requests
    the observer had counted when the bytes went out."""

    def __init__(self, observer):
        self.observer = observer
        self.writes = []

    def write(self, data):
        self.writes.append((data, len(self.observer.observed)))

    async def drain(self):
        pass

    def close(self):
        pass

    async def wait_closed(self):
        pass


@pytest.mark.parametrize("path", ["/things/x", "/stream"])
def test_request_is_counted_before_its_last_bytes(path):
    """A client that has read its whole response finds its request
    counted: the count moves before the final write (the body of a
    fixed-length response, a stream's terminating chunk), not after."""
    router = build_router()

    async def stream_handler(request):
        async def chunks():
            yield b"first\n"
            yield b"second\n"

        return Response(stream=chunks(), content_type="application/x-ndjson")

    router.add("GET", "/stream", stream_handler)
    observer = CountingObserver()
    writer = RecordingWriter(observer)

    async def drive():
        reader = asyncio.StreamReader()
        reader.feed_data(f"GET {path} HTTP/1.1\r\n\r\n".encode())
        reader.feed_eof()
        await make_handler(router, observer)(reader, writer)

    run(drive())
    assert [status for *_, status in observer.observed] == [200]
    *earlier, (last, counted) = writer.writes
    assert counted == 1
    assert all(seen == 0 for _, seen in earlier)
    if path == "/stream":
        assert last == b"0\r\n\r\n"
