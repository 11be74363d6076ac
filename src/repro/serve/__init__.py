"""Simulation-as-a-service: the ``repro serve`` async sweep API.

The `exec` subsystem already made simulation results content-addressed,
cacheable and bit-deterministic; this package puts a long-lived HTTP
front door on it so many clients (and many machines) share one
simulation pool:

- :mod:`repro.serve.http` — minimal asyncio HTTP/1.1 layer (no
  framework; stdlib only).
- :mod:`repro.serve.coalescer` — re-exports the executor's in-flight
  coalescer (:mod:`repro.exec.coalescer`).
- :mod:`repro.serve.app` — :class:`SweepService`: job table, worker
  threads, the shared :class:`~repro.exec.cache.TieredCache`.
- :mod:`repro.serve.routes` — the ``/v1`` endpoint handlers.
- :mod:`repro.serve.client` — blocking client (``repro client`` CLI).

Wire contract: ``docs/wire_schema.md``.  API reference:
``docs/service.md``.
"""

from __future__ import annotations

import asyncio
import threading

from .app import Job, SweepService, default_service_cache
from .client import ServeClient, ServiceError
from .coalescer import InflightCoalescer
from .http import ApiError, Router, make_handler
from .routes import build_router

__all__ = [
    "ApiError",
    "InflightCoalescer",
    "Job",
    "Router",
    "ServeClient",
    "ServerHandle",
    "ServiceError",
    "SweepService",
    "build_router",
    "default_service_cache",
    "serve_forever",
    "start_server",
]


async def serve_forever(service: SweepService, host: str = "127.0.0.1",
                        port: int = 8642, *, ready=None) -> None:
    """Run the service's HTTP front end until cancelled.

    :param ready: optional callback invoked with the bound
        ``(host, port)`` once the socket is listening (the CLI prints
        the URL; tests grab the ephemeral port).
    """
    handler = make_handler(build_router(service),
                           observer=getattr(service, "instruments", None))
    server = await asyncio.start_server(handler, host, port)
    bound = server.sockets[0].getsockname()[:2]
    if ready is not None:
        ready(bound)
    async with server:
        await server.serve_forever()


class ServerHandle:
    """A server running on a background thread (tests, embedding).

    Created by :func:`start_server`; exposes ``base_url`` and
    :meth:`close`.  The owning service is *not* closed with the handle —
    callers that built the service close it themselves.
    """

    def __init__(self, service: SweepService, host: str, port: int):
        self.service = service
        self._loop = asyncio.new_event_loop()
        self._bound = threading.Event()
        self.host, self.port = host, port

        def ready(address):
            self.host, self.port = address
            self._bound.set()

        self._task = None

        def run():
            self._task = self._loop.create_task(
                serve_forever(service, host, port, ready=ready))
            try:
                self._loop.run_until_complete(self._task)
            except asyncio.CancelledError:
                pass
            finally:
                self._loop.close()

        self._thread = threading.Thread(target=run, daemon=True,
                                        name="repro-serve-http")
        self._thread.start()
        if not self._bound.wait(10.0):
            raise RuntimeError("server failed to bind within 10s")

    @property
    def base_url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def close(self) -> None:
        if self._thread.is_alive():
            self._loop.call_soon_threadsafe(self._task.cancel)
            self._thread.join(10.0)

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def start_server(service: SweepService, host: str = "127.0.0.1",
                 port: int = 0) -> ServerHandle:
    """Start the HTTP front end on a background thread; ``port=0`` binds
    an ephemeral port (read it back from ``handle.port``)."""
    return ServerHandle(service, host, port)
