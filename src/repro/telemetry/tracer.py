"""Event-driven barrier tracer: spans without per-cycle probes.

A cycle probe forces the fast engine to stand down (every cycle must be
stepped and sampled), which costs the 3-54x wins of
:mod:`repro.platform.engine`.  The tracer takes the other route: every
checkpoint read-modify-write, whether the reference synchronizer ran it
or a fast engine replayed it, reports through
:meth:`Synchronizer.note_completion <repro.platform.synchronizer.Synchronizer.note_completion>`,
so subscribing to
:attr:`Synchronizer.listeners <repro.platform.synchronizer.Synchronizer.listeners>`
observes *every* barrier event — with exact cycle numbers — at zero cost
to bursts.  Likewise every D-Xbar conflict cycle reaches
:attr:`DataCrossbar.conflict_listeners <repro.platform.dxbar.DataCrossbar.conflict_listeners>`:
the reference crossbar calls them, and so does the fast engine's replay
of a synchronous one-bank conflict, with the same losers and cycle
numbers.

From those two event streams the tracer reconstructs **barrier spans**:

- a span opens at the first check-in RMW that touches an idle checkpoint
  word and closes when its counter reaches zero (the wake-all);
- per-core arrival order, check-out cycles, occupancy over time and
  per-core wait cycles (wake cycle − check-out cycle) fall out of the
  completions;
- D-Xbar conflict cycles are recorded as (bounded) point events.

Both event streams are identical under the fast and reference engines
(the engine is cycle-exact), so a traced run produces bit-identical
spans either way — guarded by ``tests/telemetry/test_differential.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..sync.points import DEFAULT_SYNC_BASE

#: default bound on stored conflict events; a baseline (no-sync) run can
#: produce one conflict per cycle, and unbounded retention would turn a
#: long simulation into a memory leak.  Overflow is *counted*, not silent.
MAX_CONFLICT_EVENTS = 10_000


@dataclass(frozen=True, slots=True)
class ConflictEvent:
    """One D-Xbar arbitration cycle that refused at least one request."""

    cycle: int
    cores: tuple[int, ...]
    pcs: tuple[int, ...]

    def to_json(self) -> dict:
        return {"cycle": self.cycle, "cores": list(self.cores),
                "pcs": list(self.pcs)}


@dataclass(slots=True)
class BarrierSpan:
    """One checkpoint's life from first check-in to wake-all.

    :ivar index: checkpoint index (DM address − sync base).
    :ivar address: absolute DM address of the checkpoint word.
    :ivar sequence: how many spans of this checkpoint completed before
        this one (a loop re-entering a region produces span 0, 1, 2, …).
    :ivar start_cycle: cycle of the first check-in completion.
    :ivar release_cycle: cycle the counter reached zero (``None`` while
        the span is still open — e.g. a run stopped mid-barrier).
    :ivar arrivals: ``(cycle, core)`` per check-in, in arrival order
        (cores merged into one RMW share a cycle, ordered by core id).
    :ivar checkouts: ``(cycle, core)`` per check-out, same convention.
    :ivar woken_cores: cores woken by the release.
    :ivar max_occupancy: peak counter value (cores inside the section).
    :ivar occupancy: ``(cycle, count)`` after every completion — the
        counter's timeline, exported as a Perfetto counter track.
    """

    index: int
    address: int
    sequence: int
    start_cycle: int
    release_cycle: int | None = None
    arrivals: list[tuple[int, int]] = field(default_factory=list)
    checkouts: list[tuple[int, int]] = field(default_factory=list)
    woken_cores: tuple[int, ...] = ()
    max_occupancy: int = 0
    occupancy: list[tuple[int, int]] = field(default_factory=list)

    @property
    def open(self) -> bool:
        return self.release_cycle is None

    @property
    def duration(self) -> int | None:
        """Check-in-to-wake cycles (``None`` while open)."""
        if self.release_cycle is None:
            return None
        return self.release_cycle - self.start_cycle

    def arrival_order(self) -> list[int]:
        """Core ids in the order they checked in."""
        return [core for _, core in self.arrivals]

    def wait_cycles(self) -> dict[int, int]:
        """Per-core cycles spent asleep at the check-out.

        A core checking out at cycle *t* sleeps from *t+1* through the
        release cycle inclusive — ``release − t`` cycles, exactly what
        the machine books as ``sync_wait_cycles`` for it.  The last
        core(s), whose check-out *is* the release, wait zero cycles.
        Empty while the span is open.
        """
        if self.release_cycle is None:
            return {}
        return {core: self.release_cycle - cycle
                for cycle, core in self.checkouts}

    def to_json(self) -> dict:
        return {
            "index": self.index,
            "address": self.address,
            "sequence": self.sequence,
            "start_cycle": self.start_cycle,
            "release_cycle": self.release_cycle,
            "arrivals": [list(a) for a in self.arrivals],
            "checkouts": [list(c) for c in self.checkouts],
            "woken_cores": list(self.woken_cores),
            "max_occupancy": self.max_occupancy,
            "wait_cycles": {str(core): wait
                            for core, wait in sorted(
                                self.wait_cycles().items())},
        }


class BarrierTracer:
    """Reconstructs barrier spans from synchronizer/D-Xbar event streams.

    Construct with the machine to trace (before or during a run — events
    are only subscribed, nothing is sampled), or use
    :func:`attach_tracer`.  After (or during) the run read
    :attr:`spans`, :attr:`conflicts` and :meth:`summary`.

    :param machine: a :class:`~repro.platform.machine.Machine` with the
        hardware synchronizer.
    :param labels: optional ``checkpoint index -> span name`` map, e.g.
        from :meth:`LintReport.region_labels
        <repro.sync.verifier.LintReport.region_labels>`.
    :param base: checkpoint array base address (``Rsync`` value).
    :param max_conflicts: bound on retained conflict events; overflow
        increments :attr:`conflicts_dropped`.
    """

    def __init__(self, machine, *, labels: dict[int, str] | None = None,
                 base: int = DEFAULT_SYNC_BASE,
                 max_conflicts: int = MAX_CONFLICT_EVENTS):
        if machine.synchronizer is None:
            raise ValueError("the barrier tracer needs a platform with "
                             "the hardware synchronizer")
        self.machine = machine
        self.base = base
        self.labels = dict(labels or {})
        self.max_conflicts = max_conflicts
        #: completed spans, in release order
        self.spans: list[BarrierSpan] = []
        #: bounded conflict-cycle events, in cycle order
        self.conflicts: list[ConflictEvent] = []
        #: conflict events beyond ``max_conflicts`` (counted, not stored)
        self.conflicts_dropped = 0
        self._open: dict[int, BarrierSpan] = {}    # address -> span
        self._sequence: dict[int, int] = {}        # index -> spans so far
        machine.synchronizer.listeners.append(self._on_completion)
        machine.dxbar.conflict_listeners.append(self._on_conflict)
        machine.attach_observer(self)

    # -- event listeners -----------------------------------------------

    def _on_completion(self, cycle: int, completion) -> None:
        span = self._open.get(completion.address)
        if span is None:
            index = completion.address - self.base
            span = BarrierSpan(index, completion.address,
                               self._sequence.get(index, 0), cycle)
            self._open[completion.address] = span
        for core in completion.checkin_cores:
            span.arrivals.append((cycle, core))
        for core in completion.checkout_cores:
            span.checkouts.append((cycle, core))
        count = completion.count_after
        span.occupancy.append((cycle, count))
        if count > span.max_occupancy:
            span.max_occupancy = count
        if completion.barrier_released:
            span.release_cycle = cycle
            span.woken_cores = completion.woken_cores
            self.spans.append(span)
            del self._open[completion.address]
            self._sequence[span.index] = span.sequence + 1

    def _on_conflict(self, cycle: int, requests) -> None:
        if len(self.conflicts) >= self.max_conflicts:
            self.conflicts_dropped += 1
            return
        self.conflicts.append(ConflictEvent(
            cycle,
            tuple(r.core for r in requests),
            tuple(r.pc for r in requests)))

    def finish(self, machine) -> None:
        """Run-completion hook (via ``Machine.attach_observer``).

        Spans still open here mean the program ended inside a barrier —
        kept in :attr:`open_spans` rather than silently closed.
        """

    # -- results ---------------------------------------------------------

    @property
    def open_spans(self) -> list[BarrierSpan]:
        """Spans whose barrier never released (in start order)."""
        return sorted(self._open.values(), key=lambda s: s.start_cycle)

    def label_of(self, index: int) -> str:
        return self.labels.get(index, f"sync#{index}")

    def wait_samples(self) -> dict[int, list[int]]:
        """Per checkpoint index: every per-core wait observed (cycles)."""
        out: dict[int, list[int]] = {}
        for span in self.spans:
            out.setdefault(span.index, []).extend(
                span.wait_cycles().values())
        return out

    def total_wait_cycles(self) -> int:
        """Sum of all per-core waits — equals the machine's
        ``sync_wait_cycles`` when every span released (the runtime
        cross-check ``tests/telemetry/test_tracer.py`` asserts)."""
        return sum(sum(span.wait_cycles().values()) for span in self.spans)

    def summary(self) -> dict:
        """Stable-keyed digest for the metrics registry / manifests."""
        from .metrics import percentile

        per_checkpoint = {}
        by_index: dict[int, list[BarrierSpan]] = {}
        for span in self.spans:
            by_index.setdefault(span.index, []).append(span)
        for index in sorted(by_index):
            spans = by_index[index]
            waits = [wait for span in spans
                     for wait in span.wait_cycles().values()]
            per_checkpoint[str(index)] = {
                "label": self.label_of(index),
                "spans": len(spans),
                "waits": len(waits),
                "wait_p50": percentile(waits, 0.5),
                "wait_p90": percentile(waits, 0.9),
                "wait_max": max(waits, default=0),
                "wait_total": sum(waits),
                "max_occupancy": max(s.max_occupancy for s in spans),
            }
        return {
            "spans": len(self.spans),
            "open_spans": len(self._open),
            "wait_cycles_total": self.total_wait_cycles(),
            "conflict_events": len(self.conflicts) + self.conflicts_dropped,
            "conflict_events_dropped": self.conflicts_dropped,
            "checkpoints": per_checkpoint,
        }


def attach_tracer(machine, *, program=None, lint_report=None,
                  **kwargs) -> BarrierTracer:
    """Convenience constructor: build a tracer with span labels.

    When a :class:`~repro.sync.verifier.LintReport` is given, spans are
    named from its region tree (``region_labels``) — with ``program``
    also given, names carry the source line of the first check-in.
    """
    labels = kwargs.pop("labels", None)
    if labels is None and lint_report is not None:
        labels = lint_report.region_labels(program)
    return BarrierTracer(machine, labels=labels, **kwargs)
