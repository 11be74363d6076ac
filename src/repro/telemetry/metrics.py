"""Metrics registry: one ``snapshot() -> dict`` over every counter layer.

The platform produces numbers in several places — the raw
:class:`~repro.platform.trace.ActivityTrace` counters, the
synchronizer's per-checkpoint contention stats, the fast engine's
engagement counters, the barrier tracer's wait histograms — and the
paper's headline metrics (ops/cycle, IM-access reduction, lockstep
rate) are *derived* from them.  The registry unifies all of it behind
one API with **stable keys**: ``snapshot()`` returns a nested dict whose
section and metric names never change meaning between runs, so sweep
manifests, reports and regression files can diff snapshots key-by-key.

Sections a machine-built registry exposes:

==============  =====================================================
``trace``        every raw :meth:`ActivityTrace.as_dict` counter
``derived``      the paper metrics computed from them
``engine``       fast-path engagement (:class:`EngineStats.as_dict`)
``checkpoints``  per-checkpoint synchronizer contention stats
``barriers``     barrier-span digest (when a tracer is registered)
==============  =====================================================
"""

from __future__ import annotations

import math


def percentile(values, q: float) -> int | float:
    """Nearest-rank percentile (``q`` in [0, 1]); 0 for an empty list.

    Nearest-rank (no interpolation) keeps results integral for cycle
    counts and stable under serialization round-trips.
    """
    if not values:
        return 0
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"percentile rank {q} outside [0, 1]")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


class MetricsRegistry:
    """Named metric sources, snapshotted together.

    A *source* is any zero-argument callable returning a JSON-shaped
    dict; it is evaluated lazily at :meth:`snapshot` time so one
    registry can be snapshotted repeatedly during a run (mid-flight
    numbers are exactly what the counters say at that cycle).
    """

    def __init__(self):
        self._sources: dict[str, object] = {}

    def add_source(self, name: str, source) -> None:
        """Register ``source`` (a callable returning a dict) as ``name``."""
        if not callable(source):
            raise TypeError(f"metrics source {name!r} must be callable")
        self._sources[name] = source

    def snapshot(self) -> dict:
        """Evaluate every source; sections in stable (sorted) order."""
        return {name: self._sources[name]()
                for name in sorted(self._sources)}

    # ------------------------------------------------------------------

    @classmethod
    def for_machine(cls, machine, tracer=None) -> "MetricsRegistry":
        """Registry over a machine's counter layers (and a tracer's)."""
        registry = cls()
        registry.add_source("trace", machine.trace.as_dict)
        registry.add_source("derived",
                            lambda: derived_metrics(machine.trace,
                                                    machine.config.num_cores))
        registry.add_source("engine", machine.engine_stats.as_dict)
        if machine.synchronizer is not None:
            registry.add_source(
                "checkpoints",
                lambda: checkpoint_metrics(machine.synchronizer))
        if tracer is not None:
            registry.add_source("barriers", tracer.summary)
        return registry


def derived_metrics(trace, num_cores: int) -> dict:
    """The paper's headline metrics, from one run's activity counters."""
    core_cycles = trace.cycles * num_cores
    fetches = trace.im_fetches_served

    def ratio(a, b):
        return round(a / b, 6) if b else 0.0

    return {
        "ops_per_cycle": ratio(trace.retired_ops, trace.cycles),
        "lockstep_fraction": round(trace.lockstep_fraction, 6),
        "im_accesses_per_op": ratio(trace.im_bank_accesses,
                                    trace.retired_ops),
        # the quantity the paper reports a ~60% reduction of: IM bank
        # reads saved by broadcast relative to fetches delivered
        "im_access_reduction": ratio(fetches - trace.im_bank_accesses,
                                     fetches),
        "core_active_fraction": ratio(trace.core_active_cycles, core_cycles),
        "core_stall_fraction": ratio(trace.core_stall_cycles, core_cycles),
        "core_sleep_fraction": ratio(trace.core_sleep_cycles, core_cycles),
        "core_halted_fraction": ratio(trace.core_halted_cycles, core_cycles),
        "sync_wait_fraction": ratio(trace.sync_wait_cycles, core_cycles),
    }


def checkpoint_metrics(synchronizer, base=None) -> dict:
    """Per-checkpoint contention counters, keyed by index (stable)."""
    from ..sync.points import DEFAULT_SYNC_BASE

    base = DEFAULT_SYNC_BASE if base is None else base
    out: dict[str, dict] = {}
    for address in sorted(synchronizer.stats):
        stats = synchronizer.stats[address]
        out[str(address - base)] = {
            "rmws": stats.rmws,
            "checkins": stats.checkins,
            "checkouts": stats.checkouts,
            "wakeups": stats.wakeups,
            "max_counter": stats.max_counter,
            "blocked_requests": stats.blocked_requests,
        }
    return out
