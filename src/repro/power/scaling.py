"""Workload-to-power mapping with voltage/frequency scaling (Fig. 3).

Given a design's simulated activity rates and throughput (ops/cycle), a
target workload in MOps/s fixes the clock frequency; the voltage model
gives the lowest feasible supply; the energy model gives the power.  A
sweep over workloads regenerates one curve of the paper's Fig. 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .components import Component
from .energy import EnergyModel
from .voltage import VoltageModel

# NumPy is imported inside the functions that use it, so ``import
# repro`` does not load it
if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class OperatingPoint:
    """One point of a power-vs-workload curve."""

    mops: float
    f_mhz: float
    v: float
    power_mw: float
    breakdown: dict[Component, float]


@dataclass(frozen=True)
class DesignPowerModel:
    """Everything needed to evaluate one design's power at any workload.

    :ivar rates: per-cycle activity rates from the cycle simulation.
    :ivar ops_per_cycle: simulated throughput.
    """

    energy: EnergyModel
    voltage: VoltageModel
    rates: dict[str, float]
    ops_per_cycle: float

    @property
    def max_mops(self) -> float:
        """Peak sustainable workload at nominal voltage."""
        return self.ops_per_cycle * self.voltage.f_nominal_mhz

    def frequency_for(self, mops: float) -> float:
        return mops / self.ops_per_cycle

    def at_workload(self, mops: float) -> OperatingPoint | None:
        """Operating point at ``mops`` MOps/s, or None if infeasible."""
        if mops <= 0:
            raise ValueError("workload must be positive")
        f_mhz = self.frequency_for(mops)
        v = self.voltage.v_for_frequency(f_mhz)
        if v is None:
            return None
        breakdown = self.energy.power_mw(self.rates, f_mhz, v)
        return OperatingPoint(mops, f_mhz, v, sum(breakdown.values()),
                              breakdown)

    def at_nominal(self, mops: float) -> OperatingPoint:
        """Operating point at ``mops`` without voltage scaling."""
        f_mhz = self.frequency_for(mops)
        breakdown = self.energy.power_mw(self.rates, f_mhz)
        return OperatingPoint(mops, f_mhz, self.energy.v_nominal,
                              sum(breakdown.values()), breakdown)

    def sweep(self, workloads_mops) -> list[OperatingPoint]:
        """Evaluate the curve at each feasible workload."""
        points = []
        for mops in workloads_mops:
            point = self.at_workload(float(mops))
            if point is not None:
                points.append(point)
        return points


def log_sweep(lo: float = 1.0, hi: float = 1000.0,
              points: int = 61) -> np.ndarray:
    """Logarithmic workload grid matching Fig. 3's axes (MOps/s)."""
    import numpy as np

    return np.logspace(np.log10(lo), np.log10(hi), points)


def savings_at(with_sync: DesignPowerModel, without_sync: DesignPowerModel,
               mops: float) -> float | None:
    """Fractional power saving of the improved design at one workload."""
    a = with_sync.at_workload(mops)
    b = without_sync.at_workload(mops)
    if a is None or b is None:
        return None
    return 1.0 - a.power_mw / b.power_mw
