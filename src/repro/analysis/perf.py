"""Wall-clock benchmark of the fast simulation engine.

Measures the end-to-end simulator throughput of the
:class:`~repro.platform.engine.FastEngine` against the reference
per-cycle ``step()`` on the two regimes it targets:

- the paper's Fig. 3 kernels (MRPFLTR / MRPDLN / SQRT32) on the
  with-sync and without-sync designs — dominated by lockstep bursts;
- a duty-cycled streaming node (per-sample ADC timer interrupt, EMA
  filter, sleep between samples) — dominated by sleep fast-forward.

Every timed pair also cross-checks the two engines' final
:class:`~repro.platform.trace.ActivityTrace` for bit-exactness, so a
benchmark run doubles as a coarse differential test.  The results feed
``benchmarks/perf/bench_engine.py`` which writes ``BENCH_engine.json``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import lru_cache

from ..isa.assembler import assemble
from ..isa.program import Program
from ..kernels.layout import BANK_WORDS
from ..kernels.suite import (
    DESIGNS,
    build_program,
    collect_benchmark,
    prepare_benchmark,
    run_benchmark,
)
from ..platform import Machine, WITH_SYNCHRONIZER

#: deterministic pseudo-signal, one list per core (no RNG dependency)
def synthetic_channels(n_samples: int, num_cores: int = 8,
                       salt: int = 0) -> list[list[int]]:
    """Deterministic per-core sample streams in the ADC range.

    ``salt`` perturbs every sample, giving batched-throughput runs
    distinct-but-deterministic inputs per run.
    """
    return [[(1000 + 37 * core + 13 * i + salt) % 4096
             for i in range(n_samples)]
            for core in range(num_cores)]


STREAMING_PERIOD = 1000      #: cycles between ADC sample interrupts

#: duty-cycled sensor node: wake on the ADC timer, EMA-filter one sample
#: per channel, sleep again (same shape as ``examples/streaming_node.py``
#: but probe-free, so the fast engine stays engaged).
STREAMING_PROGRAM = """
.equ NSAMPLES {n_samples}
.entry main

isr:
    LD R5, [R1]             ; x = next input sample
    SUB R5, R5, R4
    SRAI R5, #2
    ADD R4, R4, R5          ; ema += (x - ema) >> 2
    ST R4, [R2]
    INC R1
    INC R2
    INC R3                  ; samples processed
    RETI

main:
    MFSR R0, COREID
    LI R1, #2048
    MUL R1, R0, R1          ; R1 = in_ptr  (private bank base)
    LI R2, #512
    ADD R2, R1, R2          ; R2 = out_ptr (base + 512)
    CLR R3                  ; count
    CLR R4                  ; ema
    LI R5, #isr
    MTSR IVEC, R5
    EI
loop:
    SLEEP                   ; wait for the ADC timer
    LI R5, #NSAMPLES
    CMP R3, R5
    LBLT loop
    HALT
"""


@dataclass
class WorkloadResult:
    """Timed fast-vs-reference pair for one workload."""

    name: str
    design: str
    cycles: int
    reference_seconds: float
    fast_seconds: float
    exact: bool
    fast_cycles: int = 0
    fused_blocks: int = 0
    fused_cycles: int = 0
    deopt_count: int = 0
    sleep_cycles: int = 0
    term_sync: int = 0
    term_diverge: int = 0

    @property
    def speedup(self) -> float:
        return self.reference_seconds / self.fast_seconds

    @property
    def block_coverage(self) -> float:
        """Fraction of *awake* simulated cycles retired through fused
        blocks.

        Sleep cycles are excluded from the denominator: duty-cycled
        workloads spend most of their time fast-forwarded through
        SLEEP, and counting those cycles would make coverage measure
        the duty cycle rather than how much of the executed code the
        superblock layer captured.
        """
        awake = self.cycles - self.sleep_cycles
        return self.fused_cycles / awake if awake else 0.0

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "design": self.design,
            "cycles": self.cycles,
            "reference_seconds": round(self.reference_seconds, 4),
            "fast_seconds": round(self.fast_seconds, 4),
            "speedup": round(self.speedup, 2),
            "exact": self.exact,
            "fast_cycles": self.fast_cycles,
            "fused_blocks": self.fused_blocks,
            "fused_cycles": self.fused_cycles,
            "deopt_count": self.deopt_count,
            "sleep_cycles": self.sleep_cycles,
            "term_sync": self.term_sync,
            "term_diverge": self.term_diverge,
            "block_coverage": round(self.block_coverage, 4),
        }


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _best_of(fn, repeats: int):
    """(best wall seconds, last result) of ``repeats`` calls."""
    best = math.inf
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def _kernel_result(bench: str, design_name: str, channels,
                   repeats: int) -> WorkloadResult:
    design = DESIGNS[design_name]
    build_program(bench, design.sync_enabled)   # compile outside the timer
    ref_s, ref = _best_of(
        lambda: run_benchmark(bench, design, channels, fast_engine=False),
        repeats)
    fast_s, fast = _best_of(
        lambda: run_benchmark(bench, design, channels, fast_engine=True),
        repeats)
    exact = (ref.trace.as_dict() == fast.trace.as_dict()
             and ref.outputs == fast.outputs)
    stats = fast.machine.engine_stats
    return WorkloadResult(bench, design_name, fast.cycles,
                          ref_s, fast_s, exact,
                          fast_cycles=stats.fast_cycles,
                          fused_blocks=stats.fused_blocks,
                          fused_cycles=stats.fused_cycles,
                          deopt_count=stats.deopt_count,
                          sleep_cycles=stats.sleep_cycles,
                          term_sync=stats.term_sync,
                          term_diverge=stats.term_diverge)


@lru_cache(maxsize=8)
def _streaming_program(n_samples: int) -> Program:
    """Assemble (and cache) the streaming node's image.  Machines may
    share it: each copies the instructions and loads the data itself."""
    return assemble(STREAMING_PROGRAM.format(n_samples=n_samples))


def run_streaming(n_samples: int, *, period: int = STREAMING_PERIOD,
                  fast_engine: bool = True) -> Machine:
    """Simulate the duty-cycled streaming node to completion."""
    machine = Machine(_streaming_program(n_samples), WITH_SYNCHRONIZER,
                      fast_engine=fast_engine)
    for core, channel in enumerate(synthetic_channels(n_samples)):
        machine.dm.load(core * BANK_WORDS, channel)
    machine.add_timer(period, offset=period)
    machine.run(max_cycles=(n_samples + 2) * period * 2)
    return machine


def _streaming_result(n_samples: int, period: int,
                      repeats: int) -> WorkloadResult:
    ref_s, ref = _best_of(
        lambda: run_streaming(n_samples, period=period, fast_engine=False),
        repeats)
    fast_s, fast = _best_of(
        lambda: run_streaming(n_samples, period=period, fast_engine=True),
        repeats)
    exact = (ref.trace.as_dict() == fast.trace.as_dict()
             and ref.dm.words == fast.dm.words)
    stats = fast.engine_stats
    return WorkloadResult("STREAMING-EMA", "with-sync", fast.trace.cycles,
                          ref_s, fast_s, exact,
                          fast_cycles=stats.fast_cycles,
                          fused_blocks=stats.fused_blocks,
                          fused_cycles=stats.fused_cycles,
                          deopt_count=stats.deopt_count,
                          sleep_cycles=stats.sleep_cycles,
                          term_sync=stats.term_sync,
                          term_diverge=stats.term_diverge)


def engine_benchmark(*, samples: int = 64, streaming_samples: int = 256,
                     streaming_period: int = STREAMING_PERIOD,
                     repeats: int = 2, log=None) -> dict:
    """Time every workload pair; returns the ``BENCH_engine.json`` payload.

    :param samples: per-channel input length for the Fig. 3 kernels.
    :param streaming_samples: ADC samples for the streaming node.
    :param repeats: timed repetitions per engine (best-of).
    :param log: optional callable for per-workload progress lines.
    """
    channels = synthetic_channels(samples)
    results: list[WorkloadResult] = []
    for bench in ("MRPFLTR", "MRPDLN", "SQRT32"):
        for design_name in ("with-sync", "without-sync"):
            result = _kernel_result(bench, design_name, channels, repeats)
            results.append(result)
            if log:
                log(f"{result.name:13s} {result.design:13s} "
                    f"{result.cycles:9d} cycles  "
                    f"ref {result.reference_seconds:6.2f}s  "
                    f"fast {result.fast_seconds:6.2f}s  "
                    f"{result.speedup:5.2f}x  "
                    f"fused={result.block_coverage:4.0%}  "
                    f"exact={result.exact}")
    streaming = _streaming_result(streaming_samples, streaming_period,
                                  repeats)
    results.append(streaming)
    if log:
        log(f"{streaming.name:13s} {streaming.design:13s} "
            f"{streaming.cycles:9d} cycles  "
            f"ref {streaming.reference_seconds:6.2f}s  "
            f"fast {streaming.fast_seconds:6.2f}s  "
            f"{streaming.speedup:5.2f}x  "
            f"fused={streaming.block_coverage:4.0%}  "
            f"exact={streaming.exact}")

    with_sync = [r for r in results
                 if r.design == "with-sync" and r.name != "STREAMING-EMA"]
    kernels = [r for r in results if r.name != "STREAMING-EMA"]
    return {
        "config": {
            "samples": samples,
            "streaming_samples": streaming_samples,
            "streaming_period": streaming_period,
            "repeats": repeats,
        },
        "workloads": [r.as_dict() for r in results],
        "summary": {
            "geomean_with_sync": round(
                geomean(r.speedup for r in with_sync), 2),
            "geomean_kernels": round(
                geomean(r.speedup for r in kernels), 2),
            "streaming_speedup": round(streaming.speedup, 2),
            "min_speedup": round(min(r.speedup for r in results), 2),
            "all_exact": all(r.exact for r in results),
        },
    }


def batched_benchmark(*, runs: int = 64, samples: int = 32,
                      bench: str = "MRPFLTR",
                      design_name: str = "without-sync",
                      reference_checks: int = 2, log=None) -> dict:
    """Batched-throughput section of ``BENCH_engine.json``.

    Times ``runs`` same-image simulations with per-run inputs two ways —
    dispatched individually through the scalar fast engine, and as one
    array-of-machines batch (:func:`repro.cpu.vec.run_batch` + scalar
    finish) — and cross-checks **every** batched run bit-for-bit against
    its serial twin (outputs and full activity trace).  The first
    ``reference_checks`` runs are additionally checked against the
    reference per-cycle engine, anchoring the whole chain to ``step()``.
    """
    # NumPy, which the vector engine needs, stays off the import path
    from ..cpu import vec

    design = DESIGNS[design_name]
    build_program(bench, design.sync_enabled)   # compile outside the timer
    per_run = [synthetic_channels(samples, salt=salt * 7)
               for salt in range(runs)]
    run_benchmark(bench, design, per_run[0])    # warm block/vec tables

    t0 = time.perf_counter()
    serial = [run_benchmark(bench, design, channels)
              for channels in per_run]
    serial_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    prepared = [prepare_benchmark(bench, design, channels)
                for channels in per_run]
    stats = vec.run_batch([machine for machine, _ in prepared])
    for machine, _ in prepared:
        machine.run(max_cycles=50_000_000)
    batched = [collect_benchmark(machine, bench, design, n_samples)
               for machine, n_samples in prepared]
    batched_seconds = time.perf_counter() - t0

    # block-termination census, summed over the batch (vec writeback
    # credits its work into each machine's scalar EngineStats, so this
    # covers the batched phase too)
    census = {"term_sync": 0, "term_diverge": 0, "deopt_count": 0}
    for machine, _ in prepared:
        engine = machine.engine_stats
        for key in census:
            census[key] += getattr(engine, key)

    all_exact = all(
        s.outputs == b.outputs and s.trace.as_dict() == b.trace.as_dict()
        for s, b in zip(serial, batched))
    reference_exact = all(
        run_benchmark(bench, design, per_run[i],
                      fast_engine=False).outputs == batched[i].outputs
        for i in range(min(reference_checks, runs)))
    speedup = serial_seconds / batched_seconds if batched_seconds else 0.0
    if log:
        log(f"batched {bench} {design_name}: {runs} runs x "
            f"{samples} samples  serial {serial_seconds:6.2f}s  "
            f"batched {batched_seconds:6.2f}s  {speedup:5.2f}x  "
            f"exact={all_exact} ref={reference_exact}  "
            f"width={stats.max_width} peels={stats.early_peels}  "
            f"sync={census['term_sync']}")
    return {
        "bench": bench,
        "design": design_name,
        "runs": runs,
        "samples": samples,
        "serial_seconds": round(serial_seconds, 4),
        "batched_seconds": round(batched_seconds, 4),
        "serial_runs_per_second": round(
            runs / serial_seconds, 2) if serial_seconds else 0.0,
        "batched_runs_per_second": round(
            runs / batched_seconds, 2) if batched_seconds else 0.0,
        "speedup": round(speedup, 2),
        "all_exact": all_exact,
        "reference_checked": min(reference_checks, runs),
        "reference_exact": reference_exact,
        "census": census,
        "batch": stats.as_dict(),
    }
