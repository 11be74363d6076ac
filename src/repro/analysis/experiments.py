"""Reference experiment runner shared by benches, examples and the CLI.

The paper's evaluation rests on six simulations (three benchmarks x two
designs).  :func:`reference_runs` performs them on synthetic multi-channel
ECG through the sweep executor (:mod:`repro.exec`), so the many report
generators don't re-simulate: results are content-addressed by program
image, platform configuration, input samples and package version — a
changed kernel, knob or ECG default can never alias a stale entry.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from ..dsp import generate_ecg
from ..exec import (
    DiskCache,
    MemoryCache,
    RunRequest,
    SweepExecutor,
    TieredCache,
)
from ..kernels import (
    BenchmarkRun,
    Design,
    WITH_SYNC,
    WITHOUT_SYNC,
)
from ..power import (
    DesignPowerModel,
    EnergyModel,
    RunActivity,
    default_voltage_model,
    DEFAULT_COEFFICIENTS,
)

#: default evaluation window (samples per channel per run)
DEFAULT_SAMPLES = 64
DEFAULT_SEED = 2013

_executor: SweepExecutor | None = None


def default_executor() -> SweepExecutor:
    """The process-wide executor behind :func:`reference_runs`.

    Serial with a bounded in-process cache by default; ``REPRO_JOBS=N``
    turns on the process pool, ``REPRO_CACHE_DIR=...`` adds the on-disk
    cache tier so results persist across sessions.
    """
    global _executor
    if _executor is None:
        jobs = int(os.environ.get("REPRO_JOBS", "0") or 0)
        cache = MemoryCache(max_entries=64)
        if os.environ.get("REPRO_CACHE_DIR"):
            cache = TieredCache(cache, DiskCache())
        _executor = SweepExecutor(jobs=jobs, cache=cache)
    return _executor


def evaluation_channels(n_samples: int = DEFAULT_SAMPLES,
                        n_channels: int = 8,
                        seed: int = DEFAULT_SEED) -> list[list[int]]:
    """The synthetic multi-lead ECG window used by the evaluation."""
    from ..dsp.ecg import EcgConfig

    rec = generate_ecg(n_channels=n_channels, n_samples=n_samples,
                       config=EcgConfig(seed=seed))
    return [rec.channel(c) for c in range(n_channels)]


def reference_runs(n_samples: int = DEFAULT_SAMPLES,
                   seed: int = DEFAULT_SEED,
                   designs: tuple[Design, ...] = (WITH_SYNC, WITHOUT_SYNC),
                   benchmarks: tuple[str, ...] = ("MRPFLTR", "SQRT32",
                                                  "MRPDLN"),
                   verify: bool = True,
                   executor: SweepExecutor | None = None,
                   ) -> dict[tuple[str, str], BenchmarkRun]:
    """Run (or fetch cached) reference simulations.

    :param executor: sweep executor to schedule on; defaults to the
        process-wide :func:`default_executor`.
    :returns: ``(benchmark, design name) -> BenchmarkRun``.
    """
    executor = executor or default_executor()
    requests = [
        RunRequest(benchmark=name, design=design, n_samples=n_samples,
                   seed=seed, verify=verify)
        for name in benchmarks for design in designs
    ]
    runs: dict[tuple[str, str], BenchmarkRun] = {}
    for outcome in executor.run(requests):
        if not outcome.ok:
            raise RuntimeError(
                f"reference run {outcome.request.label} failed: "
                f"{outcome.error}")
        if verify and outcome.golden_match is False:
            raise AssertionError(
                f"{outcome.request.benchmark} on "
                f"{outcome.request.design.name} diverged from the golden "
                "model — the platform simulation is broken")
        run = outcome.benchmark_run()
        runs[run.benchmark, run.design.name] = run
    return runs


def run_activities(runs: dict[tuple[str, str], BenchmarkRun]
                   ) -> list[RunActivity]:
    """Convert reference runs into calibration inputs."""
    return [
        RunActivity(bench, design, run.trace.rates_per_cycle(),
                    run.trace.ops_per_cycle)
        for (bench, design), run in runs.items()
    ]


def power_models(runs: dict[tuple[str, str], BenchmarkRun],
                 coefficients=DEFAULT_COEFFICIENTS,
                 voltage=None,
                 ) -> dict[tuple[str, str], DesignPowerModel]:
    """Calibrated power models for every reference run."""
    voltage = voltage or default_voltage_model()
    models = {}
    for (bench, design), run in runs.items():
        energy = EnergyModel(coefficients,
                             has_synchronizer=design == "with-sync")
        models[bench, design] = DesignPowerModel(
            energy, voltage, run.trace.rates_per_cycle(),
            run.trace.ops_per_cycle)
    return models


# ---------------------------------------------------------------------------
# Derived experiment results
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpeedupRow:
    """Per-benchmark performance comparison (paper sec. V-B)."""

    benchmark: str
    cycles_without: int
    cycles_with: int
    ops_per_cycle_without: float
    ops_per_cycle_with: float

    @property
    def speedup(self) -> float:
        return self.cycles_without / self.cycles_with


def speedup_rows(runs: dict[tuple[str, str], BenchmarkRun]
                 ) -> list[SpeedupRow]:
    rows = []
    benchmarks = sorted({bench for bench, _ in runs})
    for bench in benchmarks:
        base = runs[bench, "without-sync"]
        sync = runs[bench, "with-sync"]
        rows.append(SpeedupRow(
            bench, base.cycles, sync.cycles,
            base.ops_per_cycle, sync.ops_per_cycle))
    return rows


@dataclass(frozen=True)
class AccessRow:
    """IM/DM access comparison (paper sec. V-B: ~60% fewer IM accesses,
    <10% more DM accesses)."""

    benchmark: str
    im_without: int
    im_with: int
    dm_without: int
    dm_with: int

    @property
    def im_reduction(self) -> float:
        return 1.0 - self.im_with / self.im_without

    @property
    def dm_increase(self) -> float:
        return self.dm_with / self.dm_without - 1.0


def access_rows(runs: dict[tuple[str, str], BenchmarkRun]
                ) -> list[AccessRow]:
    rows = []
    for bench in sorted({b for b, _ in runs}):
        base = runs[bench, "without-sync"].trace
        sync = runs[bench, "with-sync"].trace
        rows.append(AccessRow(bench, base.im_bank_accesses,
                              sync.im_bank_accesses,
                              base.dm_accesses, sync.dm_accesses))
    return rows


def clear_cache() -> None:
    """Drop cached reference runs (tests use this)."""
    if _executor is not None and _executor.cache is not None:
        _executor.cache.clear()
