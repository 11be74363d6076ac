"""Power-over-time analysis: per-interval activity and power profiles.

A :class:`PowerTraceProbe` snapshots the activity counters every N cycles;
combined with the calibrated energy model this yields the platform's
power profile over time — bursts, idle valleys and the duty-cycle shape
that a battery or a DC-DC converter actually sees.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..power import EnergyModel, F_NOMINAL_MHZ


@dataclass(frozen=True)
class IntervalActivity:
    """Event deltas for one interval of the simulation."""

    start_cycle: int
    cycles: int
    rates: dict[str, float]


class PowerTraceProbe:
    """Snapshots activity every ``interval`` cycles."""

    _KEYS = ("core_active_cycles", "core_stall_cycles",
             "im_bank_accesses", "im_fetches_served",
             "dm_bank_reads", "dm_bank_writes", "dm_served",
             "sync_rmw_ops", "retired_ops")

    def __init__(self, interval: int = 256):
        if interval < 1:
            raise ValueError("interval must be positive")
        self.interval = interval
        self.intervals: list[IntervalActivity] = []
        self._last = {key: 0 for key in self._KEYS}
        self._last_cycle = 0

    def sample(self, machine, active) -> None:
        trace = machine.trace
        if trace.cycles - self._last_cycle < self.interval:
            return
        self._capture(trace)

    def finish(self, machine) -> None:
        if machine.trace.cycles > self._last_cycle:
            self._capture(machine.trace)

    def _capture(self, trace) -> None:
        cycles = trace.cycles - self._last_cycle
        current = {key: getattr(trace, key) for key in self._KEYS}
        deltas = {key: current[key] - self._last[key]
                  for key in self._KEYS}
        rates = {
            "core_active": deltas["core_active_cycles"] / cycles,
            "core_stalled": deltas["core_stall_cycles"] / cycles,
            "im_access": deltas["im_bank_accesses"] / cycles,
            "im_served": deltas["im_fetches_served"] / cycles,
            "dm_access": (deltas["dm_bank_reads"]
                          + deltas["dm_bank_writes"]) / cycles,
            "dm_served": deltas["dm_served"] / cycles,
            "sync_rmw": deltas["sync_rmw_ops"] / cycles,
            "ops": deltas["retired_ops"] / cycles,
        }
        self.intervals.append(
            IntervalActivity(self._last_cycle, cycles, rates))
        self._last = current
        self._last_cycle = trace.cycles


def power_profile(probe: PowerTraceProbe, energy: EnergyModel,
                  f_mhz: float = F_NOMINAL_MHZ,
                  v: float | None = None) -> list[tuple[int, float]]:
    """(start cycle, total mW) per interval at fixed (f, V)."""
    return [
        (interval.start_cycle,
         energy.total_power_mw(interval.rates, f_mhz, v))
        for interval in probe.intervals
    ]


def profile_stats(profile: list[tuple[int, float]]) -> dict[str, float]:
    """Peak / average / trough of a power profile."""
    powers = [p for _, p in profile]
    return {
        "peak_mw": max(powers),
        "average_mw": sum(powers) / len(powers),
        "trough_mw": min(powers),
        "peak_to_average": max(powers) / (sum(powers) / len(powers)),
    }


def sparkline(profile: list[tuple[int, float]], width: int = 64) -> str:
    """Compact ASCII power-over-time rendering."""
    blocks = " ▁▂▃▄▅▆▇█"
    powers = [p for _, p in profile]
    if len(powers) > width:
        # resample by averaging buckets
        bucket = len(powers) / width
        powers = [
            sum(powers[int(i * bucket):max(int((i + 1) * bucket),
                                           int(i * bucket) + 1)])
            / max(1, len(powers[int(i * bucket):max(int((i + 1) * bucket),
                                                    int(i * bucket) + 1)]))
            for i in range(width)
        ]
    top = max(powers) or 1.0
    return "".join(
        blocks[min(int(p / top * (len(blocks) - 1)), len(blocks) - 1)]
        for p in powers)
