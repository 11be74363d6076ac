"""One-shot reproduction report: every table/figure in one document.

``python -m repro report`` runs the six reference simulations and writes
a single markdown/plain-text report with each of the paper's artifacts
next to its published values — the artifact a reviewer would ask for.
"""

from __future__ import annotations

from .energy import format_energy
from .experiments import (
    access_rows,
    power_models,
    reference_runs,
    speedup_rows,
)
from .tables import (
    format_accesses,
    format_fig3,
    format_novscale,
    format_speedup,
    format_table1,
)


def synclint_section() -> str:
    """Static sync-discipline verification of every bundled kernel.

    The whole evaluation rests on the checkpoint discipline being
    honoured (docs/sync_model.md); this section proves it statically for
    each benchmark image the report's numbers were produced from.
    """
    from ..kernels import BENCHMARKS
    from ..sync import lint_assembly, lint_minic

    lines = []
    for name in sorted(BENCHMARKS):
        bench = BENCHMARKS[name]
        if bench.kind == "minic":
            report = lint_minic(bench.source, name=name, sync_mode="auto")
        else:
            report = lint_assembly(bench.source, name=name)
        status = "clean" if report.ok and not report.warnings else "DIRTY"
        lines.append(
            f"  {name:10s} {status:6s} {len(report.regions):3d} regions, "
            f"{report.errors} error(s), {report.warnings} warning(s)")
        for diag in report.diagnostics:
            lines.append(f"    {diag.render().splitlines()[0]}")
    return "\n".join(lines)


def engine_section(n_samples: int = 64) -> str:
    """Fast-engine engagement for every reference simulation.

    Re-issues the reference requests — cache hits after
    :func:`~repro.analysis.experiments.reference_runs` — and digests the
    ``engine`` counters each payload records: how much of the simulated
    time ran on the lockstep/divergent/sleep fast paths, what fraction
    was retired through fused superblocks, and how often a guard
    deoptimized back to the reference ``step()``.
    """
    from ..exec import RunRequest
    from ..kernels import WITH_SYNC, WITHOUT_SYNC
    from .experiments import DEFAULT_SEED, default_executor

    executor = default_executor()
    requests = [
        RunRequest(benchmark=name, design=design, n_samples=n_samples,
                   seed=DEFAULT_SEED)
        for name in ("MRPFLTR", "SQRT32", "MRPDLN")
        for design in (WITH_SYNC, WITHOUT_SYNC)
    ]
    lines = [f"  {'benchmark':10s} {'design':14s} {'fast':>6s} "
             f"{'fused':>6s} {'blocks':>7s} {'deopts':>7s}"]
    for outcome in executor.run(requests):
        payload = outcome.payload or {}
        engine = payload.get("engine") or {}
        trace = (payload.get("run") or {}).get("trace") or {}
        cycles = trace.get("cycles") or 0
        request = outcome.request

        def pct(value):
            return f"{value / cycles:6.1%}" if cycles else f"{'-':>6s}"

        lines.append(
            f"  {request.benchmark:10s} {request.design.name:14s} "
            f"{pct(engine.get('fast_cycles', 0))} "
            f"{pct(engine.get('fused_cycles', 0))} "
            f"{engine.get('fused_blocks', 0):7d} "
            f"{engine.get('deopt_count', 0):7d}")
    return "\n".join(lines)


def telemetry_section(n_samples: int = 64) -> str:
    """Barrier-span telemetry for every with-sync benchmark.

    Event-driven (:class:`~repro.telemetry.BarrierTracer`) — the fast
    engine stays engaged, and every span is named from the synclint
    region tree, so the wait table below ties each checkpoint's cost to
    a source construct.
    """
    from ..kernels import BENCHMARKS
    from ..kernels.suite import WITH_SYNC, prepare_benchmark
    from ..sync import lint_assembly, lint_minic
    from ..telemetry import BarrierTracer
    from .experiments import evaluation_channels

    channels = evaluation_channels(n_samples)
    lines = []
    for name in sorted(BENCHMARKS):
        bench = BENCHMARKS[name]
        if bench.kind == "minic":
            lint = lint_minic(bench.source, name=name, sync_mode="auto")
        else:
            lint = lint_assembly(bench.source, name=name)
        machine, _ = prepare_benchmark(name, WITH_SYNC, channels)
        tracer = BarrierTracer(machine,
                               labels=lint.region_labels(machine.program))
        machine.run()

        summary = tracer.summary()
        lines.append(
            f"  {name}: {summary['spans']} barrier spans over "
            f"{machine.trace.cycles} cycles, "
            f"{summary['wait_cycles_total']} wait cycles")
        lines.append(f"    {'checkpoint':34s} {'spans':>5s} "
                     f"{'p50':>6s} {'p90':>6s} {'max':>6s} {'total':>8s}")
        checkpoints = summary["checkpoints"]
        for index in sorted(checkpoints, key=int):
            row = checkpoints[index]
            lines.append(
                f"    {row['label']:34s} {row['spans']:5d} "
                f"{row['wait_p50']:6d} {row['wait_p90']:6d} "
                f"{row['wait_max']:6d} {row['wait_total']:8d}")
    return "\n".join(lines)


def full_report(n_samples: int = 64) -> str:
    """Generate the complete reproduction report as text."""
    runs = reference_runs(n_samples=n_samples)
    models = power_models(runs)

    sections = [
        ("Reproduction report — Dogan et al., DATE 2013",
         f"{len(runs)} reference simulations, "
         f"{n_samples}-sample synthetic-ECG windows, 8 cores.\n"
         "All runs verified bit-exact against the golden models."),
        ("E1 / Table I — dynamic power distribution",
         format_table1(models)),
        ("E2 / Fig. 3(a) — MRPFLTR", format_fig3(models, "MRPFLTR")),
        ("E3 / Fig. 3(b) — SQRT32", format_fig3(models, "SQRT32")),
        ("E4 / Fig. 3(c) — MRPDLN", format_fig3(models, "MRPDLN")),
        ("E5 — speedup and throughput",
         format_speedup(speedup_rows(runs))),
        ("E6 — memory-bank accesses",
         format_accesses(access_rows(runs))),
        ("E7 — savings without voltage scaling",
         format_novscale(models)),
        ("Energy per operation (derived)", format_energy(models)),
        ("Fast-engine engagement (superblocks and burst regimes)",
         engine_section(n_samples)),
        ("Sync-discipline verification (synclint)", synclint_section()),
        ("Barrier telemetry (per-checkpoint wait distribution)",
         telemetry_section(n_samples)),
    ]
    parts = []
    for title, body in sections:
        parts.append("=" * 72)
        parts.append(title)
        parts.append("=" * 72)
        parts.append(body)
        parts.append("")
    return "\n".join(parts)
