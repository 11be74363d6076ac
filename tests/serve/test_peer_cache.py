"""The HTTP peer cache tier against a live ``repro serve``.

An :class:`~repro.exec.cache.HttpPeerCache` behind a local memory and
disk tier, pointed at an in-process server: it reads through
``GET /v1/runs/{digest}`` and writes through ``PUT``, takes a 404 for
a miss, and switches itself off after ``max_errors`` failed calls.
"""

from types import SimpleNamespace

import pytest

from repro.exec import (
    DiskCache,
    HttpPeerCache,
    MemoryCache,
    RunRequest,
    TieredCache,
    execute_request,
    request_digest,
)
from repro.kernels import WITH_SYNC
from repro.serve import SweepService, start_server

ROUTE = "/v1/runs/{digest}"


@pytest.fixture(scope="module")
def peer(tmp_path_factory):
    service = SweepService(cache=MemoryCache(),
                           state_dir=tmp_path_factory.mktemp("peer"))
    with service, start_server(service) as handle:
        yield SimpleNamespace(service=service, url=handle.base_url)


def result(seed: int) -> tuple[str, dict]:
    """(digest, payload) of one small simulation."""
    request = RunRequest("SQRT32", WITH_SYNC, n_samples=8, num_cores=2,
                         seed=seed)
    return request_digest(request), execute_request(request)


def tiered(tmp_path, remote) -> TieredCache:
    return TieredCache(MemoryCache(), DiskCache(tmp_path / "disk"),
                       remote=remote)


def peer_calls(peer, method: str, status: int) -> float:
    """``/v1/runs/{digest}`` requests the peer answered so."""
    return peer.service.instruments.http_requests.value(
        method=method, route=ROUTE, status=str(status))


def counted(peer, method: str, status: int, expected: float) -> bool:
    """Whether the peer's count is ``expected`` (the server counts a
    request before the end of its response, so one read suffices)."""
    return peer_calls(peer, method, status) == expected


class TestHttpPeerTier:
    def test_a_digest_only_the_peer_holds_is_served_and_promoted(
            self, peer, tmp_path):
        digest, payload = result(701)
        peer.service.store_payload(digest, payload)
        remote = HttpPeerCache(peer.url)
        cache = tiered(tmp_path, remote)
        assert cache.get(digest) == payload
        assert cache.last_hit_tier == "peer"
        assert remote.stats.hits == 1 and remote.errors == 0
        # promoted into both local tiers: the next lookup stays local
        assert cache.memory.stats.promotions == 1
        assert cache.disk.stats.promotions == 1
        assert cache.get(digest) == payload
        assert cache.last_hit_tier == "memory"
        assert remote.stats.hits == 1

    def test_an_unknown_digest_is_a_miss_not_an_error(self, peer,
                                                      tmp_path):
        before = peer_calls(peer, "GET", 404)
        remote = HttpPeerCache(peer.url, max_errors=1)
        cache = tiered(tmp_path, remote)
        assert cache.get("0" * 64) is None
        assert cache.last_hit_tier is None
        assert counted(peer, "GET", 404, before + 1)
        assert remote.stats.misses == 1
        assert remote.errors == 0 and not remote.disabled

    def test_put_writes_through_to_the_peer(self, peer, tmp_path):
        digest, payload = result(702)
        before = peer_calls(peer, "PUT", 204)
        remote = HttpPeerCache(peer.url)
        cache = tiered(tmp_path, remote)
        assert peer.service.run_payload(digest) is None
        cache.put(digest, payload)
        assert counted(peer, "PUT", 204, before + 1)
        assert remote.stats.stores == 1 and remote.errors == 0
        assert peer.service.run_payload(digest) == payload

    def test_an_unreachable_peer_is_disabled_after_max_errors(self,
                                                              tmp_path):
        # nothing listens on the discard port: each call is refused
        remote = HttpPeerCache("http://127.0.0.1:9", timeout=5.0,
                               max_errors=2)
        cache = tiered(tmp_path, remote)
        for errors in (1, 2):
            assert cache.get("1" * 64) is None
            assert remote.errors == errors
        assert remote.disabled
        # switched off: a miss without another attempt
        assert cache.get("1" * 64) is None
        assert remote.errors == 2
        assert remote.stats.misses == 3
