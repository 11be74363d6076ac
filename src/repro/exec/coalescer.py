"""In-flight request coalescing: one simulation per digest in flight.

The result cache already makes *completed* work free to re-serve; the
coalescer does the same for work that is still running.  Every
:class:`~repro.exec.scheduler.SweepExecutor` owns one, and each
:meth:`~repro.exec.scheduler.SweepExecutor.run` first **claims** the
digest of every unique request here.  The first claimant becomes the
*owner* and actually simulates; every concurrent run that lands on the
same digest while the owner is in flight (under ``repro serve``,
another job) gets a *follower* claim and simply waits for the owner's
result — a thousand identical design-point queries become one
simulation plus 999 notifications.  It is digest-keyed, so "identical"
means what :func:`~repro.exec.job.request_digest` means.

Claims are thread-primitive based and crash-safe: the owner resolves
its claims in a ``finally`` block, so followers are never stranded by a
failed owner — they receive the error instead.  An owner that dies
*without* a result (worker crash, cancellation) resolves with
``crashed=True``, and exactly one follower **inherits ownership** via
:meth:`InflightCoalescer.inherit`: it executes the run itself (a
*handoff*, counted in :attr:`InflightCoalescer.handoffs`) while the
rest wait on its successor claim.
"""

from __future__ import annotations

import threading


class Claim:
    """One digest's slot in the in-flight table.

    Followers share the owner's claim object and block in :meth:`wait`
    until the owner calls :meth:`resolve`; ownership itself is decided
    by :meth:`InflightCoalescer.claim`, which tells each claimant
    separately whether it won the slot.

    :ivar owner_trace: the owner's :class:`~repro.obs.context.Span` /
        trace identity (whatever the owner passed to ``claim``), so
        followers can link their spans to the owner's — the cross-job
        edge in the trace graph.
    :ivar crashed: set by :meth:`resolve` when the owner died without
        producing a result; tells followers to take over instead of
        surfacing the error.
    :ivar successor: the claim that superseded this one after a crash
        (set by :meth:`InflightCoalescer.inherit`); later followers
        wait on it instead of starting their own takeover.
    """

    def __init__(self, digest: str, owner_trace=None):
        self.digest = digest
        self.owner_trace = owner_trace
        self.crashed = False
        self.successor: "Claim | None" = None
        self._event = threading.Event()
        self._payload: dict | None = None
        self._error: str | None = None

    def resolve(self, payload: dict | None, error: str | None, *,
                crashed: bool = False) -> None:
        """Publish the owner's result and wake every follower."""
        self._payload = payload
        self._error = error
        self.crashed = crashed
        self._event.set()

    def wait(self, timeout: float | None = None
             ) -> tuple[dict | None, str | None]:
        """Block until resolved; ``(None, error)`` on timeout."""
        if not self._event.wait(timeout):
            return None, (f"coalesced run {self.digest[:12]} timed out "
                          "waiting for its in-flight owner")
        return self._payload, self._error


class InflightCoalescer:
    """Digest-keyed table of in-flight executions.

    ``owned`` / ``coalesced`` count claims handed out since startup;
    ``inflight`` is the current table size; ``handoffs`` counts the
    times a follower inherited a crashed owner's digest.  All four feed
    the service's ``/v1/metrics`` snapshot and the Prometheus plane.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._inflight: dict[str, Claim] = {}
        self.owned = 0
        self.coalesced = 0
        self.handoffs = 0

    @property
    def inflight(self) -> int:
        with self._lock:
            return len(self._inflight)

    def claim(self, digest: str, *, trace=None) -> tuple[Claim, bool]:
        """Claim a digest; returns ``(claim, owned)``.

        Exactly one claimant per in-flight cycle sees ``owned=True``
        and **must** eventually call :meth:`resolve` for the digest
        (normally via ``try/finally``), or followers block until their
        wait timeout.  Everyone else shares the owner's claim and just
        waits on it.

        :param trace: the claimant's trace identity; stored on the
            claim as :attr:`Claim.owner_trace` when it wins the slot,
            so followers can span-link to the owner.
        """
        with self._lock:
            claim = self._inflight.get(digest)
            if claim is None:
                claim = Claim(digest, owner_trace=trace)
                self._inflight[digest] = claim
                self.owned += 1
                return claim, True
            self.coalesced += 1
            return claim, False

    def resolve(self, digest: str, payload: dict | None,
                error: str | None, *, crashed: bool = False) -> None:
        """Owner hand-off: publish the result, retire the in-flight slot.

        New claims for the digest after this point start a fresh cycle
        (they will normally be served by the result cache instead).

        :param crashed: the owner is terminating without a result;
            followers observing this re-claim the digest and execute
            themselves rather than propagating the error.
        """
        with self._lock:
            claim = self._inflight.pop(digest, None)
        if claim is not None:
            claim.resolve(payload, error, crashed=crashed)

    def inherit(self, claim: Claim, *, trace=None) -> tuple[Claim, bool]:
        """Take over a *crashed* claim; returns ``(successor, inherited)``.

        Exactly one follower per crashed claim sees ``inherited=True``
        (and is counted as a handoff) — the decision is made on the
        crashed claim itself, so the winner is unique even when the
        takeover run finishes before slower followers wake up (a plain
        re-``claim`` would hand a second "ownership" to anyone arriving
        after the successor resolved).  Losers receive the successor
        claim to wait on.  If a *fresh* submission claimed the digest
        between the crash and this call, that claim is the successor
        and nobody inherits.
        """
        with self._lock:
            if claim.successor is None:
                existing = self._inflight.get(claim.digest)
                if existing is not None and existing is not claim:
                    claim.successor = existing
                else:
                    successor = Claim(claim.digest, owner_trace=trace)
                    claim.successor = successor
                    self._inflight[claim.digest] = successor
                    self.owned += 1
                    self.handoffs += 1
                    return successor, True
            self.coalesced += 1
            return claim.successor, False

    def as_dict(self) -> dict:
        with self._lock:
            return {"owned": self.owned, "coalesced": self.coalesced,
                    "inflight": len(self._inflight),
                    "handoffs": self.handoffs}
