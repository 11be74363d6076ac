"""Calibration of the power model against the paper's published numbers.

Two fits, both re-runnable:

1. **Energy coefficients** (Table I): bounded linear least squares over
   per-event energies so that simulated activity reproduces the paper's
   per-component dynamic power at 8 MOps/s and 1.2 V for all six
   (benchmark, design) pairs.  Components Table I gives as single values
   are weighted higher than the ranged ones (fitted to midpoints).

2. **Voltage model** (Fig. 3): (Vth, alpha) of the alpha-power delay law
   fitted so the improved design's power saving at each benchmark's
   baseline-peak workload matches the paper's reported savings
   (64% / 56% / 55%).

The fitted values ship as defaults in :mod:`repro.power.defaults`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .components import Component
from .energy import EnergyCoefficients, EnergyModel
from .voltage import VoltageModel

# ---------------------------------------------------------------------------
# Published targets (Dogan et al., DATE 2013)
# ---------------------------------------------------------------------------

#: Table I: dynamic power (mW) at 8 MOps/s and 1.2 V.  Ranges are
#: (min, max) across the three benchmarks; single values are exact.
TABLE1_TARGETS_MW = {
    "without-sync": {
        Component.CORES: (0.14, 0.14),
        Component.IM: (0.20, 0.36),
        Component.DM: (0.05, 0.08),
        Component.DXBAR: (0.06, 0.06),
        Component.IXBAR: (0.03, 0.03),
        Component.SYNCHRONIZER: None,
        Component.CLOCK_TREE: (0.09, 0.16),
    },
    "with-sync": {
        Component.CORES: (0.16, 0.16),
        Component.IM: (0.09, 0.15),
        Component.DM: (0.06, 0.08),
        Component.DXBAR: (0.05, 0.05),
        Component.IXBAR: (0.02, 0.02),
        Component.SYNCHRONIZER: (0.01, 0.01),
        Component.CLOCK_TREE: (0.05, 0.08),
    },
}

#: Table I total-power ranges (mW) at 8 MOps/s, 1.2 V.
TABLE1_TOTAL_MW = {
    "without-sync": (0.64, 0.94),
    "with-sync": (0.47, 0.58),
}

TABLE1_WORKLOAD_MOPS = 8.0

#: Fig. 3: (baseline max MOps/s & mW, improved max MOps/s & mW, savings
#: fraction at the baseline max workload).
FIG3_ANCHORS = {
    "MRPFLTR": {"wo_max": (89.0, 10.46), "with_max": (211.0, 15.38),
                "savings": 0.64},
    "SQRT32": {"wo_max": (156.0, 12.61), "with_max": (290.0, 18.27),
               "savings": 0.56},
    "MRPDLN": {"wo_max": (167.0, 13.93), "with_max": (336.0, 20.09),
               "savings": 0.55},
}

#: §V-B: dynamic power saving without voltage scaling, "up to 38%".
NOVSCALE_SAVINGS = 0.38

#: weight for exactly-published values vs range midpoints
_EXACT_WEIGHT = 3.0
_RANGE_WEIGHT = 1.0

_COEFF_NAMES = ("core_active", "core_gated", "im_access", "ixbar_transfer",
                "dm_access", "dxbar_transfer", "sync_rmw", "sync_idle",
                "clock_tree")


@dataclass(frozen=True)
class RunActivity:
    """The calibration-relevant summary of one simulated run."""

    benchmark: str
    design: str                     # 'with-sync' | 'without-sync'
    rates: dict[str, float]
    ops_per_cycle: float


@dataclass(frozen=True)
class CalibrationResult:
    coefficients: EnergyCoefficients
    voltage: VoltageModel
    energy_residual: float
    voltage_residual: float

    def report(self) -> str:
        c = self.coefficients
        lines = ["fitted per-event energies (pJ):"]
        for name in _COEFF_NAMES:
            lines.append(f"  {name:16s} {getattr(c, name):9.3f}")
        v = self.voltage
        lines.append(
            f"voltage model: Vth={v.v_threshold:.3f} V, "
            f"alpha={v.alpha:.3f}, floor={v.v_floor:.2f} V")
        lines.append(f"energy fit residual  {self.energy_residual:.4f}")
        lines.append(f"voltage fit residual {self.voltage_residual:.4f}")
        return "\n".join(lines)


def _component_row(component: Component, rates: dict[str, float],
                   with_sync: bool) -> np.ndarray | None:
    """Linear-combination row over the 9 coefficients, in pJ/cycle."""
    row = np.zeros(len(_COEFF_NAMES))
    if component is Component.CORES:
        row[0] = rates["core_active"]
        row[1] = rates["core_stalled"]
    elif component is Component.IM:
        row[2] = rates["im_access"]
    elif component is Component.IXBAR:
        row[3] = rates["im_served"]
    elif component is Component.DM:
        row[4] = rates["dm_access"]
    elif component is Component.DXBAR:
        row[5] = rates["dm_served"]
    elif component is Component.SYNCHRONIZER:
        if not with_sync:
            return None
        row[6] = rates["sync_rmw"]
        row[7] = 1.0
    elif component is Component.CLOCK_TREE:
        row[8] = 1.0
    return row


def fit_energy_coefficients(runs: list[RunActivity]
                            ) -> tuple[EnergyCoefficients, float]:
    """Bounded least squares of per-event energies against Table I."""
    # imported here, not at module level: SciPy roughly doubles the time
    # and memory of ``import repro``, and only calibration needs it
    from scipy.optimize import lsq_linear

    rows, targets, weights = [], [], []
    for run in runs:
        f_mhz = TABLE1_WORKLOAD_MOPS / run.ops_per_cycle
        design_targets = TABLE1_TARGETS_MW[run.design]
        for component, bounds in design_targets.items():
            if bounds is None:
                continue
            row = _component_row(component, run.rates,
                                 run.design == "with-sync")
            if row is None:
                continue
            lo, hi = bounds
            target_pj = (lo + hi) / 2 * 1000.0 / f_mhz
            weight = _EXACT_WEIGHT if lo == hi else _RANGE_WEIGHT
            rows.append(row * weight)
            targets.append(target_pj * weight)
            weights.append(weight)
    matrix = np.array(rows)
    vector = np.array(targets)
    result = lsq_linear(matrix, vector, bounds=(0, np.inf))
    coefficients = EnergyCoefficients(**dict(zip(_COEFF_NAMES, result.x)))
    residual = float(np.sqrt(np.mean((matrix @ result.x - vector) ** 2))
                     / max(vector.max(), 1e-9))
    return coefficients, residual


def fit_voltage_model(runs: list[RunActivity],
                      coefficients: EnergyCoefficients,
                      v_floor: float = 0.50) -> tuple[VoltageModel, float]:
    """Fit (Vth, alpha) to the Fig. 3 savings anchors.

    The anchor workload for each benchmark is the *simulated* baseline's
    peak (the analogous operating point to the paper's), and the target is
    the paper's reported saving there.
    """
    from scipy.optimize import least_squares

    from .scaling import DesignPowerModel

    by_key = {(r.benchmark, r.design): r for r in runs}

    def models(voltage: VoltageModel, benchmark: str):
        pair = []
        for design in ("with-sync", "without-sync"):
            run = by_key[benchmark, design]
            energy = EnergyModel(coefficients,
                                 has_synchronizer=design == "with-sync")
            pair.append(DesignPowerModel(energy, voltage, run.rates,
                                         run.ops_per_cycle))
        return pair

    def residuals(params):
        vth, alpha = params
        if vth >= v_floor - 0.02:
            return [10.0] * len(FIG3_ANCHORS)
        voltage = VoltageModel(v_threshold=vth, alpha=alpha,
                               v_floor=v_floor)
        errors = []
        for benchmark, anchor in FIG3_ANCHORS.items():
            with_model, without_model = models(voltage, benchmark)
            mops = without_model.max_mops
            with_point = with_model.at_workload(mops)
            without_point = without_model.at_workload(mops)
            if with_point is None or without_point is None:
                errors.append(10.0)
                continue
            saving = 1.0 - with_point.power_mw / without_point.power_mw
            errors.append(saving - anchor["savings"])
        return errors

    fit = least_squares(residuals, x0=[0.40, 2.4],
                        bounds=([0.25, 1.0], [v_floor - 0.03, 4.0]))
    vth, alpha = fit.x
    voltage = VoltageModel(v_threshold=float(vth), alpha=float(alpha),
                           v_floor=v_floor)
    residual = float(np.sqrt(np.mean(np.square(fit.fun))))
    return voltage, residual


def calibrate(runs: list[RunActivity]) -> CalibrationResult:
    """Full calibration from six simulated reference runs."""
    expected = {(b, d) for b in FIG3_ANCHORS
                for d in ("with-sync", "without-sync")}
    have = {(r.benchmark, r.design) for r in runs}
    missing = expected - have
    if missing:
        raise ValueError(f"calibration needs runs for {sorted(missing)}")
    coefficients, energy_residual = fit_energy_coefficients(runs)
    voltage, voltage_residual = fit_voltage_model(runs, coefficients)
    return CalibrationResult(coefficients, voltage,
                             energy_residual, voltage_residual)
