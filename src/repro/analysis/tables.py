"""Report formatters for every table and figure of the paper.

Each function takes the reference runs / power models and renders the
same rows or series the paper reports, with the published values printed
alongside for comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..power import (
    COMPONENT_ORDER,
    Component,
    DesignPowerModel,
    FIG3_ANCHORS,
    TABLE1_TARGETS_MW,
    TABLE1_TOTAL_MW,
    TABLE1_WORKLOAD_MOPS,
    log_sweep,
    savings_at,
)
from .experiments import AccessRow, SpeedupRow

Models = dict[tuple[str, str], DesignPowerModel]


# ---------------------------------------------------------------------------
# Table I
# ---------------------------------------------------------------------------

def table1_values(models: Models) -> dict[str, dict[Component, tuple]]:
    """Simulated Table I: per design, per component (min, max) mW across
    benchmarks at 8 MOps/s and nominal voltage."""
    out: dict[str, dict[Component, tuple]] = {}
    benchmarks = sorted({bench for bench, _ in models})
    for design in ("without-sync", "with-sync"):
        per_component: dict[Component, list[float]] = {
            c: [] for c in COMPONENT_ORDER}
        totals = []
        for bench in benchmarks:
            model = models[bench, design]
            point = model.at_nominal(TABLE1_WORKLOAD_MOPS)
            for component in COMPONENT_ORDER:
                per_component[component].append(
                    point.breakdown[component])
            totals.append(point.power_mw)
        out[design] = {
            component: (min(vals), max(vals))
            for component, vals in per_component.items()
        }
        out[design]["total"] = (min(totals), max(totals))
    return out


def _range_str(lo: float, hi: float) -> str:
    if abs(hi - lo) < 5e-4:
        return f"{(lo + hi) / 2:13.2f}      "
    return f"{lo:5.2f} < P < {hi:5.2f}"


def format_table1(models: Models) -> str:
    """Render Table I with measured and published values side by side."""
    values = table1_values(models)
    lines = [
        "Table I — dynamic power distribution at "
        f"{TABLE1_WORKLOAD_MOPS:.0f} MOps/s and 1.2 V (mW)",
        "",
        f"{'component':14s}  {'w/o sync (sim)':>20s}  "
        f"{'w/o (paper)':>16s}  {'with sync (sim)':>20s}  "
        f"{'with (paper)':>16s}",
    ]

    def paper_str(design: str, component) -> str:
        if component == "total":
            lo, hi = TABLE1_TOTAL_MW[design]
            return f"{lo:.2f}..{hi:.2f}"
        bounds = TABLE1_TARGETS_MW[design][component]
        if bounds is None:
            return "-"
        lo, hi = bounds
        return f"{lo:.2f}" if lo == hi else f"{lo:.2f}..{hi:.2f}"

    rows = list(COMPONENT_ORDER) + ["total"]
    for component in rows:
        name = component.value if isinstance(component, Component) \
            else "Total"
        wo = values["without-sync"][component]
        ws = values["with-sync"][component]
        lines.append(
            f"{name:14s}  {_range_str(*wo):>20s}  "
            f"{paper_str('without-sync', component):>16s}  "
            f"{_range_str(*ws):>20s}  "
            f"{paper_str('with-sync', component):>16s}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Fig. 3
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Fig3Series:
    """One benchmark's power-vs-workload curves (both designs)."""

    benchmark: str
    workloads: list[float]
    power_without: list[float | None]
    power_with: list[float | None]
    max_without: tuple[float, float]     # (MOps/s, mW)
    max_with: tuple[float, float]
    savings_at_baseline_peak: float


def fig3_series(models: Models, benchmark: str,
                points: int = 49) -> Fig3Series:
    """Compute one panel of Fig. 3 on a log workload grid."""
    with_model = models[benchmark, "with-sync"]
    without_model = models[benchmark, "without-sync"]
    hi = with_model.max_mops * 1.05
    grid = [float(w) for w in log_sweep(1.0, hi, points)]
    p_wo, p_w = [], []
    for mops in grid:
        a = without_model.at_workload(mops)
        b = with_model.at_workload(mops)
        p_wo.append(None if a is None else a.power_mw)
        p_w.append(None if b is None else b.power_mw)
    peak_wo = without_model.at_workload(without_model.max_mops)
    peak_w = with_model.at_workload(with_model.max_mops)
    saving = savings_at(with_model, without_model,
                        without_model.max_mops)
    return Fig3Series(
        benchmark, grid, p_wo, p_w,
        (without_model.max_mops, peak_wo.power_mw),
        (with_model.max_mops, peak_w.power_mw),
        saving if saving is not None else float("nan"))


def format_fig3(models: Models, benchmark: str) -> str:
    """Render one Fig. 3 panel as a table plus its anchor points."""
    series = fig3_series(models, benchmark)
    anchor = FIG3_ANCHORS[benchmark]
    lines = [
        f"Fig. 3 — total power vs workload, {benchmark} "
        "(voltage scaling enabled)",
        "",
        f"{'MOps/s':>10s}  {'w/o sync mW':>12s}  {'with sync mW':>12s}",
    ]
    for mops, wo, w in zip(series.workloads, series.power_without,
                           series.power_with):
        wo_str = f"{wo:12.3f}" if wo is not None else f"{'-':>12s}"
        w_str = f"{w:12.3f}" if w is not None else f"{'-':>12s}"
        lines.append(f"{mops:10.1f}  {wo_str}  {w_str}")
    lines += [
        "",
        f"baseline peak   (sim): {series.max_without[0]:6.0f} MOps/s "
        f"@ {series.max_without[1]:6.2f} mW   "
        f"(paper: {anchor['wo_max'][0]:.0f} MOps/s @ "
        f"{anchor['wo_max'][1]:.2f} mW)",
        f"improved peak   (sim): {series.max_with[0]:6.0f} MOps/s "
        f"@ {series.max_with[1]:6.2f} mW   "
        f"(paper: {anchor['with_max'][0]:.0f} MOps/s @ "
        f"{anchor['with_max'][1]:.2f} mW)",
        f"savings at baseline peak (sim): "
        f"{series.savings_at_baseline_peak:6.1%}   "
        f"(paper: {anchor['savings']:.0%})",
    ]
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Sec. V-B text claims
# ---------------------------------------------------------------------------

def format_speedup(rows: list[SpeedupRow]) -> str:
    lines = [
        "Speedup and throughput (paper: up to 2.4x; 2.5-4.0 vs 1.1-2.0 "
        "ops/cycle)",
        "",
        f"{'benchmark':10s}  {'cycles w/o':>11s}  {'cycles with':>11s}  "
        f"{'speedup':>8s}  {'opc w/o':>8s}  {'opc with':>8s}",
    ]
    for row in rows:
        lines.append(
            f"{row.benchmark:10s}  {row.cycles_without:11d}  "
            f"{row.cycles_with:11d}  {row.speedup:8.2f}  "
            f"{row.ops_per_cycle_without:8.2f}  "
            f"{row.ops_per_cycle_with:8.2f}")
    return "\n".join(lines)


def format_accesses(rows: list[AccessRow]) -> str:
    lines = [
        "Memory-bank accesses (paper: up to ~60% fewer IM accesses, "
        "<10% more DM accesses)",
        "",
        f"{'benchmark':10s}  {'IM w/o':>9s}  {'IM with':>9s}  "
        f"{'IM redu':>8s}  {'DM w/o':>9s}  {'DM with':>9s}  "
        f"{'DM incr':>8s}",
    ]
    for row in rows:
        lines.append(
            f"{row.benchmark:10s}  {row.im_without:9d}  {row.im_with:9d}  "
            f"{row.im_reduction:8.1%}  {row.dm_without:9d}  "
            f"{row.dm_with:9d}  {row.dm_increase:8.1%}")
    return "\n".join(lines)


def novscale_savings(models: Models) -> dict[str, float]:
    """Dynamic power savings at equal workload *without* voltage scaling
    (paper: up to 38%), per benchmark at the Table I workload."""
    out = {}
    for bench in sorted({b for b, _ in models}):
        base = models[bench, "without-sync"].at_nominal(TABLE1_WORKLOAD_MOPS)
        sync = models[bench, "with-sync"].at_nominal(TABLE1_WORKLOAD_MOPS)
        out[bench] = 1.0 - sync.power_mw / base.power_mw
    return out


def format_novscale(models: Models) -> str:
    savings = novscale_savings(models)
    lines = ["Dynamic power savings without voltage scaling "
             "(paper: up to 38%)", ""]
    for bench, value in savings.items():
        lines.append(f"  {bench:10s} {value:6.1%}")
    return "\n".join(lines)
