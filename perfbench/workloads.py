"""The benchmark's workloads, each generated from one seed.

A workload sets up once (builds, warm-up), then runs timed *passes*
over a fixed request set.  Checks run after the timed phase, so they
never count against a pass.  Every input the program sees — ECG seeds,
streaming periods, the service schedule — comes from the workload
seed.
"""

from __future__ import annotations

import random
import shutil
import tempfile
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.analysis.perf import run_streaming
from repro.exec import DiskCache, RunRequest, SweepExecutor, SweepSpec
from repro.kernels import WITH_SYNC, WITHOUT_SYNC
from repro.obs.context import TraceContext
from repro.telemetry import SweepManifestWriter

from checks import (
    GoldenChecker,
    reference_crosscheck,
    streaming_crosscheck,
    streaming_golden,
    streaming_outputs,
)


@dataclass
class PassResult:
    """One timed pass."""

    elapsed: float
    #: requests the pass completed (runs, simulations or submissions)
    requests: int
    #: per-request host seconds behind ``req_p50_ms``
    latencies: list = field(default_factory=list)
    #: per-request host seconds behind ``req_tail_ms``
    tail: list = field(default_factory=list)
    #: simulated cycles of the runs this pass simulated
    cycles: int = 0
    #: what the checks need: (request, digest, payload, error) rows
    results: list = field(default_factory=list)
    #: reference seconds per host second while the pass ran
    scale: float = 1.0


def derive_seeds(rng: random.Random, count: int) -> list[int]:
    return [rng.randrange(1, 2**31) for _ in range(count)]


class Workload:
    """Base: a seeded request set run in timed passes."""

    name = ""
    #: the tail percentile of ``req_tail_ms``, fixed per workload so
    #: runs compare like with like; sized for at least ten samples
    #: beyond it in a run of the default length
    tail_percentile = 90.0
    #: simulation runs per request (a service submission holds several)
    runs_per_request = 1

    def __init__(self, seed: int, workdir: Path, *, small: bool = False):
        self.seed = seed
        self.small = small
        self.rng = random.Random(seed)
        self.workdir = Path(tempfile.mkdtemp(prefix=f"{self.name}-",
                                             dir=workdir))

    def setup(self) -> None:
        """Build everything and warm every lazy table (untimed)."""
        raise NotImplementedError

    def run_pass(self, index: int) -> PassResult:
        raise NotImplementedError

    def check(self, passes: list[PassResult]) -> tuple[int, list[str]]:
        """Check every pass; returns (operations checked, errors)."""
        raise NotImplementedError

    def crosscheck(self) -> tuple[int, list[str]]:
        """Reference-engine cross-checks on small windows."""
        raise NotImplementedError

    def describe(self) -> dict:
        """The generated inputs, for the run record."""
        return {}

    def layer_extras(self, passes: list[PassResult]) -> dict:
        """Metrics of the service's job span trees; zero here, where
        the ``serve`` layer does not run."""
        return {"serve.exec_wait_ms": 0.0, "serve.events_tail_ms": 0.0,
                "serve.unattributed_frac": 0.0}

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


class SweepWorkload(Workload):
    """A cold sweep through :class:`SweepExecutor`, as ``repro sweep``
    runs it by default: in-process, batching on, an empty disk cache
    and a manifest per pass."""

    samples = 16
    crosscheck_samples = 8

    def build_spec(self) -> SweepSpec:
        raise NotImplementedError

    def setup(self) -> None:
        self.spec = self.build_spec()
        self._sweep("warm-up")

    def _sweep(self, tag: str) -> tuple[float, list]:
        root = self.workdir / tag
        start = time.perf_counter()
        cache = DiskCache(root / "cache")
        manifest = SweepManifestWriter(root / "manifest",
                                       name=self.spec.name)
        with SweepExecutor(jobs=0, cache=cache) as executor:
            outcomes = executor.run(self.spec, manifest=manifest,
                                    trace_id=TraceContext.new().trace_id)
        elapsed = time.perf_counter() - start
        shutil.rmtree(root, ignore_errors=True)
        return elapsed, outcomes

    def run_pass(self, index: int) -> PassResult:
        elapsed, outcomes = self._sweep(f"pass-{index}")
        executed = [o for o in outcomes if not o.cached and not o.deduped]
        latencies = [o.elapsed for o in executed]
        return PassResult(
            elapsed=elapsed, requests=len(outcomes), latencies=latencies,
            tail=latencies,
            cycles=sum(o.payload["run"]["trace"]["cycles"]
                       for o in executed if o.ok),
            results=[(o.request, o.digest, o.payload, o.error)
                     for o in outcomes])

    def check(self, passes):
        checker = GoldenChecker()
        errors = []
        attempted = 0
        for result in passes:
            for request, digest, payload, error in result.results:
                attempted += 1
                problem = checker.check(request, digest, payload, error)
                if problem:
                    errors.append(problem)
        totals = {result.cycles for result in passes}
        if len(totals) > 1:
            errors.append(f"simulated cycles differ between passes: "
                          f"{sorted(totals)}")
        self.total_cycles = passes[0].cycles if passes else 0
        return attempted, errors

    def describe(self) -> dict:
        return {"samples": self.samples, "runs": len(self.spec),
                "ecg_seeds": sorted({r.seed for r in self.spec})}


class AblationSweep(SweepWorkload):
    """The 19 points of ``ablation_spec`` on one seeded ECG recording."""

    name = "ablation-sweep"
    tail_percentile = 75.0

    def build_spec(self) -> SweepSpec:
        from bench_sweep import ablation_spec

        ecg_seed = derive_seeds(self.rng, 1)[0]
        spec = ablation_spec(8 if self.small else self.samples)
        requests = [replace(r, seed=ecg_seed) for r in spec]
        if self.small:
            requests = requests[4:8]
        return SweepSpec(spec.name, tuple(requests))

    def crosscheck(self):
        picks = [r for r in self.spec if r.benchmark == "MRPFLTR"][:1]
        picks += [r for r in self.spec if r.config is not None][:1]
        picks += [r for r in self.spec if r.sync_mode == "all"][:1]
        picks = [replace(r, n_samples=self.crosscheck_samples)
                 for r in picks] or [replace(self.spec.requests[0],
                                             n_samples=4)]
        return len(picks), reference_crosscheck(picks)


class SeedSweep(SweepWorkload):
    """MRPFLTR and MRPDLN on both designs, each over one family of ECG
    seeds sharing an image — the batches ``cpu.vec`` runs."""

    name = "seed-sweep"
    family = 3
    samples = 8
    tail_percentile = 75.0

    def build_spec(self) -> SweepSpec:
        seeds = derive_seeds(self.rng, 2 if self.small else self.family)
        benches = ("MRPDLN",) if self.small else ("MRPFLTR", "MRPDLN")
        requests = tuple(
            RunRequest(bench, design, n_samples=self.samples, seed=seed)
            for bench in benches for design in (WITH_SYNC, WITHOUT_SYNC)
            for seed in seeds)
        return SweepSpec("seed-sweep", requests)

    def crosscheck(self):
        family = [replace(r, n_samples=min(self.crosscheck_samples,
                                           self.samples))
                  for r in self.spec.requests[:2]]
        return len(family), reference_crosscheck(family, batched=True)


class StreamingNode(Workload):
    """The duty-cycled ADC node over a seeded list of timer periods."""

    name = "streaming-node"
    samples = 64
    runs = 8
    #: the periods of one pass always sum to ``runs x mean_period``, so
    #: the simulated length of a pass does not depend on the seed
    mean_period = 1000
    tail_percentile = 95.0

    def setup(self) -> None:
        runs = 2 if self.small else self.runs
        draws = [self.rng.uniform(0.4, 1.6) for _ in range(runs)]
        scale = runs * self.mean_period / sum(draws)
        self.periods = [max(50, round(d * scale)) for d in draws]
        if self.small:
            self.samples = 8
        self.run_pass(-1)

    def run_pass(self, index: int) -> PassResult:
        latencies, results, cycles = [], [], 0
        start = time.perf_counter()
        for period in self.periods:
            begin = time.perf_counter()
            machine = run_streaming(self.samples, period=period)
            latencies.append(time.perf_counter() - begin)
            results.append((period, machine.trace.cycles,
                            streaming_outputs(machine, self.samples)))
            cycles += machine.trace.cycles
        elapsed = time.perf_counter() - start
        return PassResult(elapsed=elapsed, requests=len(self.periods),
                          latencies=latencies, tail=latencies,
                          cycles=cycles, results=results)

    def check(self, passes):
        golden = streaming_golden(self.samples)
        errors, attempted = [], 0
        first: dict[int, int] = {}
        for result in passes:
            for period, cycles, outputs in result.results:
                attempted += 1
                if outputs != golden:
                    errors.append(f"period {period}: outputs differ from "
                                  "the EMA golden model")
                elif first.setdefault(period, cycles) != cycles:
                    errors.append(f"period {period}: simulated cycles "
                                  "differ between passes")
        self.total_cycles = passes[0].cycles if passes else 0
        return attempted, errors

    def crosscheck(self):
        errors = [e for e in (streaming_crosscheck(8, self.periods[0]),)
                  if e]
        return 1, errors

    def describe(self) -> dict:
        return {"samples": self.samples, "periods": self.periods}
