#!/usr/bin/env python3
"""The repository benchmark: served ECG traffic, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload ablation-sweep --seed 1 \\
        --seconds 12 --trace 0

Workloads (``BENCHMARK.json`` records why each exists):

- ``ablation-sweep`` — the 19 points of ``ablation_spec`` as one cold
  sweep per pass (in-process, batching on, empty disk cache, manifest);
- ``seed-sweep`` — MRPFLTR and MRPDLN on both designs, each over one
  family of ECG seeds sharing an image;
- ``serve-mixed`` — two closed-loop clients against an in-process
  ``repro serve``: warm resubmissions, fresh sweeps, coalesced pairs;
- ``streaming-node`` — the duty-cycled ADC node over seeded periods.

A run sets up (imports, image builds, one warm-up pass that compiles
every fused block and vector table, the server for ``serve-mixed``),
then runs timed passes for ``--seconds``, then checks every result: the
golden model for every run, the reference ``step()`` engine bit for bit
on a few small windows, identical results and simulated cycles across
passes, and for ``serve-mixed`` the service's own latency counters.

End-to-end metrics (``--trace 0``; reference seconds, see
:func:`calibrate`; names, units and bounds live in ``BENCHMARK.json``):

=================  ==========================================================
``setup_s``        process start to the first timed pass; median of
                   :data:`SETUP_REPEATS` set-ups (this process plus fresh
                   processes that only set up)
``pass_s``         median seconds of one pass over the workload's fixed
                   request set (serve: one seeded client schedule)
``sim_mcycles      median over passes of simulated cycles of the runs a
_per_s``           pass simulated, in millions per host second
``req_per_s``      requests completed per second: runs (sweeps),
                   simulations (streaming), submissions (serve)
``req_p50_ms``     median request latency: a run's execution (sweeps),
                   one simulation (streaming), a submission that simulated
                   or followed a coalesced run (serve)
``req_tail_ms``    request latency at the workload's fixed tail percentile
                   (the run record names it and its sample count); serve
                   counts only all-cached submissions
``peak_rss_mb``    peak resident memory of the benchmark process
=================  ==========================================================

``--trace 1`` splits ``--seconds`` into an untraced half and a traced
half, wraps the public calls of every layer (``layers.py``) for the
traced half, and prints the per-layer metrics plus ``overhead.<metric>``
— traced minus untraced for every end-to-end metric (for
``peak_rss_mb``, the traced half's growth of the resident set minus
that of as many untraced passes run in a quarter after it, since the
peak only ever grows).  Failures are the result's ``failed`` count over
``attempted`` (the error rate); each run's full record, with its seed,
goes to ``.perfbench-out/records``.
"""

from __future__ import annotations

import time

#: iterations of the calibration loop (about 10 ms on a 2020s x86 core)
CALIBRATION_STEPS = 60_000
#: the calibration loop's duration that defines a reference second
NOMINAL_CALIBRATION_S = 0.010


def calibrate() -> float:
    """Seconds a fixed pure-Python loop takes on this host right now.

    Shared hosts change speed for seconds at a time (by up to 1.6x on a
    2-core shared VM, in CPU time as much as in wall time), so every
    timing is scaled by ``NOMINAL_CALIBRATION_S / calibrate()``
    measured next to it: the benchmark reports *reference seconds*,
    which cancel the host's speed and keep the program's.  Over ten
    seeds on a 2-core VM this cut the quartile spread of the sweeps'
    pass times from 32-34% to 6-8% and the streaming node's from 17%
    to 2%.  On ``serve-mixed``, whose passes also wait on wall-clock
    ticks, host seconds spread less within a set of runs, but their
    median moved 23% between sets as the host's speed changed, while
    the reference-second median moved 3%.
    """
    start = time.perf_counter()
    regs, mem, acc = [0] * 8, {}, 0
    for i in range(CALIBRATION_STEPS):
        r = (regs[i & 7] + i) & 0xFFFF
        regs[i & 7] = r
        if r & 1:
            mem[r & 255] = r
        acc += mem.get(i & 255, 0)
    return time.perf_counter() - start


CALIBRATION_AT_START = calibrate()
START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
SETUP_REPEATS = 5

#: the metric and workload tables: names, units, bounds, reasons
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in MANIFEST["workloads"])


def parse_args(argv=None):
    parser = argparse.ArgumentParser(
        description="Repository benchmark on served ECG traffic.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="minimal inputs (the benchmark's self-test)")
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up, print the set-up time, exit")
    return parser.parse_args(argv)


def import_program() -> None:
    """Put the checkout's sources on the path; fail if they are absent."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no repro sources under {ROOT / 'src'}")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks" / "perf"),
                    str(HERE)]


def make_workload(name: str, seed: int, small: bool):
    from serve_mixed import ServeMixed
    from workloads import AblationSweep, SeedSweep, StreamingNode

    classes = {cls.name: cls for cls in (AblationSweep, SeedSweep,
                                         ServeMixed, StreamingNode)}
    OUT.mkdir(exist_ok=True)
    return classes[name](seed, OUT, small=small)


def probe_setup(args) -> float:
    """Set-up time of a fresh process that only sets up."""
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--setup-probe"] + (["--small"] if args.small else [])
    done = subprocess.run(command, cwd=ROOT, capture_output=True,
                          text=True, timeout=170, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def speed_scale(before: float) -> float:
    """Reference seconds per host second, from calibrations taken
    ``before`` and now."""
    return NOMINAL_CALIBRATION_S / ((before + calibrate()) / 2)


def timed_phase(workload, seconds: float, first: int) -> list:
    """Run passes until ``seconds`` have elapsed (at least one)."""
    passes = []
    start = time.perf_counter()
    while True:
        before = calibrate()
        result = workload.run_pass(first + len(passes))
        result.scale = speed_scale(before)
        passes.append(result)
        if time.perf_counter() - start >= seconds:
            return passes


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def rss_mb() -> float:
    """Current resident set size."""
    pages = int(Path("/proc/self/statm").read_text().split()[1])
    return pages * resource.getpagesize() / 2**20


def percentile(values, pct: float) -> float:
    if len(values) < 2:
        return max(values, default=0.0)
    return statistics.quantiles(values, n=100,
                                method="inclusive")[round(pct) - 1]


def end_to_end(workload, setup_s: float, passes: list, rss: float, *,
               scaled: bool = True) -> dict:
    """The end-to-end metrics, in reference seconds unless not
    ``scaled`` (then in host seconds, for the run record)."""
    scale = [p.scale if scaled else 1.0 for p in passes]
    elapsed = [p.elapsed * k for p, k in zip(passes, scale)]
    latencies = [x * k for p, k in zip(passes, scale) for x in p.latencies]
    tail = [x * k for p, k in zip(passes, scale) for x in p.tail]
    return {
        "setup_s": setup_s,
        "pass_s": statistics.median(elapsed),
        "sim_mcycles_per_s": statistics.median(
            p.cycles / e / 1e6 for p, e in zip(passes, elapsed)),
        "req_per_s": sum(p.requests for p in passes) / sum(elapsed),
        "req_p50_ms": 1000 * statistics.median(latencies or [0.0]),
        "req_tail_ms": 1000 * percentile(tail, workload.tail_percentile),
        "peak_rss_mb": rss,
    }


def tail_info(workload, passes) -> dict:
    samples = sum(len(p.tail) for p in passes)
    return {"percentile": workload.tail_percentile, "samples": samples,
            "beyond": samples * (1 - workload.tail_percentile / 100)}


def why_of(name: str) -> str:
    return next(w["why"] for w in MANIFEST["workloads"] if w["name"] == name)


def set_up(workload) -> float:
    """Set the workload up; returns reference seconds since start."""
    workload.setup()
    return (time.perf_counter() - START) * speed_scale(CALIBRATION_AT_START)


def run(workload, args) -> dict:
    """Set up, measure, check; returns the run record."""
    from layers import LayerTracer

    tracer = LayerTracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    setup_here = set_up(workload)
    if tracer is not None:
        tracer.uninstall()
    probes = [probe_setup(args) for _ in range(SETUP_REPEATS - 1)]

    record = {"workload": workload.name, "why": why_of(workload.name),
              "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "small": args.small,
              "inputs": workload.describe(),
              "setup_samples": [setup_here] + probes}
    if not args.trace:
        passes = timed_phase(workload, args.seconds, 0)
        setup_s = statistics.median([setup_here] + probes)
        metrics = end_to_end(workload, setup_s, passes, peak_rss_mb())
        record["host_seconds"] = end_to_end(workload, setup_s, passes,
                                            peak_rss_mb(), scaled=False)
        traced = []
    else:
        half = args.seconds / 2
        passes = timed_phase(workload, half, 0)
        untraced = end_to_end(workload, statistics.median(probes), passes,
                              peak_rss_mb())
        tracer.install()
        mark = tracer.mark()
        rss = [rss_mb()]
        traced = timed_phase(workload, half, len(passes))
        tracer.uninstall()
        rss.append(rss_mb())
        # the peak only grows, and the first passes of a process also grow
        # the allocator's pools, so the memory overhead compares the traced
        # passes' growth with that of untraced passes run after them
        after = timed_phase(workload, half / 2, len(passes) + len(traced))
        rss.append(rss_mb())
        tracer.requests = sum(p.requests * workload.runs_per_request
                              for p in traced)
        with_tracing = end_to_end(workload, setup_here, traced,
                                  peak_rss_mb())
        metrics = tracer.layer_metrics(since=mark, passes=len(traced))
        metrics.update(workload.layer_extras(traced))
        overhead = {name: with_tracing[name] - untraced[name]
                    for name in untraced}
        overhead["peak_rss_mb"] = (rss[1] - rss[0]) - (
            (rss[2] - rss[1]) * len(traced) / len(after))
        metrics.update({f"overhead.{name}": value
                        for name, value in overhead.items()})
        record["untraced"] = untraced
        record["traced"] = with_tracing
        record["rss_mb"] = rss
        passes = passes + traced + after

    attempted, errors = workload.check(passes)
    crosschecked, cross_errors = workload.crosscheck()
    attempted += crosschecked
    errors += cross_errors

    table = MANIFEST["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in table}
    if set(metrics) != set(units):
        raise RuntimeError(
            f"metrics differ from BENCHMARK.json: computed but not listed "
            f"{sorted(set(metrics) - set(units))}, listed but not computed "
            f"{sorted(set(units) - set(metrics))}")
    record.update({
        "passes": len(passes),
        "pass_seconds": [p.elapsed for p in passes],
        "pass_scales": [p.scale for p in passes],
        "total_cycles": workload.total_cycles,
        "tail": tail_info(workload, traced or passes),
        "attempted": attempted,
        "errors": errors,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    })
    if args.trace:
        record["regimes"] = {
            key: metrics[name] for key, name in (
                ("lockstep", "platform.engine.lockstep_share"),
                ("closure", "platform.engine.closure_share"),
                ("divergent", "platform.engine.divergent_share"),
                ("sleep", "platform.engine.sleep_share"),
                ("vector", "cpu.vec.vector_share"),
                ("reference", "platform.engine.reference_share"))}
    return record


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    workload = make_workload(args.workload, args.seed, args.small)
    try:
        if args.setup_probe:
            print(json.dumps({"setup_s": set_up(workload)}))
            return 0
        record = run(workload, args)
    finally:
        workload.close()
    records = OUT / "records"
    records.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (records / name).write_text(json.dumps(record, indent=2) + "\n")
    for error in record["errors"]:
        print(f"FAILED: {error}", file=sys.stderr)
    for metric, entry in record["metrics"].items():
        print(f"{metric:40s} {entry['value']:14.6f} {entry['unit']}")
    print(json.dumps({"correct": not record["errors"],
                      "attempted": record["attempted"],
                      "failed": len(record["errors"]),
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
