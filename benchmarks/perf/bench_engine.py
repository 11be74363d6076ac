#!/usr/bin/env python3
"""Benchmark the fast simulation engine; write ``BENCH_engine.json``.

Times the reference per-cycle engine against the fast engine
(predecoded dispatch + fused superblocks + lockstep/divergent bursts +
sleep fast-forward) on the paper's Fig. 3 kernels and a duty-cycled
streaming node, cross-checking trace bit-exactness on every pair.  Every
workload row records its superblock coverage (``fused_cycles`` /
``block_coverage``, measured over *awake* cycles); the process fails if
any pair diverges, any workload runs slower than the reference,
superblock fusion fails to engage on the lockstep-heavy kernels,
full-size coverage on the streaming node drops below its 0.25 floor,
or any workload's ``deopt_count`` regresses against the committed
``BENCH_engine.json``.

A second section times batched throughput: a same-image family of runs
dispatched as one array-of-machines batch (``repro.cpu.vec``) versus
individually through the fast engine — once on the without-sync design
and once on with-sync, which batches end-to-end now that barrier bursts
replay in vectorized lockstep.  Every batched run is cross-checked
bit-for-bit against its serial twin, and each row carries a
block-termination census (``term_sync`` / ``term_diverge``).  The
process fails if any batched run diverges, the reference anchor fails,
either design's batch runs slower than serial dispatch (3x is required
at full size), or the census is missing.  Run from the repo root:

    PYTHONPATH=src python benchmarks/perf/bench_engine.py
    PYTHONPATH=src python benchmarks/perf/bench_engine.py --quick
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
from datetime import datetime, timezone
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.analysis.perf import batched_benchmark, engine_benchmark  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--samples", type=int, default=64,
                        help="per-channel input samples for the kernels")
    parser.add_argument("--streaming-samples", type=int, default=256,
                        help="ADC samples for the streaming workload")
    parser.add_argument("--repeats", type=int, default=2,
                        help="timed repetitions per engine (best-of)")
    parser.add_argument("--batch-runs", type=int, default=64,
                        help="same-image runs in the batched-throughput "
                             "pass")
    parser.add_argument("--batch-samples", type=int, default=32,
                        help="per-channel samples per batched run")
    parser.add_argument("--quick", action="store_true",
                        help="small inputs, one repeat (CI smoke)")
    parser.add_argument("--output", type=Path,
                        default=REPO_ROOT / "BENCH_engine.json",
                        help="result file (default: repo root)")
    args = parser.parse_args(argv)

    if args.quick:
        args.samples = min(args.samples, 32)
        args.streaming_samples = min(args.streaming_samples, 64)
        args.repeats = 1
        args.batch_runs = min(args.batch_runs, 16)
        args.batch_samples = min(args.batch_samples, 16)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    if args.batch_runs < 2:
        parser.error("--batch-runs must be at least 2")

    payload = engine_benchmark(
        samples=args.samples,
        streaming_samples=args.streaming_samples,
        repeats=args.repeats,
        log=print)
    payload["batched"] = [
        batched_benchmark(
            runs=args.batch_runs,
            samples=args.batch_samples,
            design_name=design_name,
            log=print)
        for design_name in ("without-sync", "with-sync")]
    payload["generated"] = datetime.now(timezone.utc).isoformat(
        timespec="seconds")
    payload["python"] = platform.python_version()

    summary = payload["summary"]
    print(f"\ngeomean speedup (with-sync kernels): "
          f"{summary['geomean_with_sync']}x")
    print(f"geomean speedup (all kernels):       "
          f"{summary['geomean_kernels']}x")
    print(f"streaming speedup:                   "
          f"{summary['streaming_speedup']}x")
    print(f"slowest workload:                    "
          f"{summary['min_speedup']}x")
    print(f"all pairs bit-exact:                 {summary['all_exact']}")
    for batched in payload["batched"]:
        print(f"batched throughput ({batched['design']:12s}):   "
              f"{batched['batched_runs_per_second']} runs/s vs "
              f"{batched['serial_runs_per_second']} serial "
              f"({batched['speedup']}x, {batched['runs']} runs, "
              f"exact={batched['all_exact']})")

    # snapshot the committed baseline before overwriting it, so the
    # deopt-regression gate compares against what was checked in
    baseline = {}
    if args.output.exists():
        try:
            previous = json.loads(args.output.read_text())
            baseline = {(row["name"], row["design"]): row
                        for row in previous.get("workloads", [])}
        except (json.JSONDecodeError, KeyError, TypeError):
            baseline = {}

    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {args.output}")

    failures = []
    if not summary["all_exact"]:
        failures.append("a fast/reference pair diverged (exact: false)")
    for row in payload["workloads"]:
        if row["speedup"] < 1.0:
            failures.append(
                f"{row['name']} {row['design']} ran slower than the "
                f"reference ({row['speedup']}x)")
        if (row["name"] in ("MRPFLTR", "MRPDLN")
                and not row["fused_blocks"]):
            failures.append(
                f"superblock fusion never engaged on {row['name']} "
                f"{row['design']}")
    # coverage floors and deopt regressions are only meaningful at the
    # committed full-size workloads (--quick shrinks every input)
    if not args.quick:
        floors = {("STREAMING-EMA", "with-sync"): 0.25}
        for row in payload["workloads"]:
            key = (row["name"], row["design"])
            floor = floors.get(key)
            if floor is not None and row["block_coverage"] < floor:
                failures.append(
                    f"{row['name']} {row['design']} block coverage "
                    f"{row['block_coverage']} below the {floor} floor")
            previous = baseline.get(key)
            if (previous is not None
                    and row["deopt_count"] > previous.get(
                        "deopt_count", float("inf"))):
                failures.append(
                    f"{row['name']} {row['design']} deopt_count "
                    f"regressed: {row['deopt_count']} > committed "
                    f"{previous['deopt_count']}")
    # a small smoke batch only has to not lose; full-size batches
    # (>= 64 runs) must deliver the 3x the layered design promises —
    # for the with-sync design too, now that barriers replay in lockstep
    batch_floor = 1.0 if args.quick or args.batch_runs < 64 else 3.0
    for batched in payload["batched"]:
        label = f"batched {batched['bench']} {batched['design']}"
        if not batched["all_exact"]:
            failures.append(
                f"{label}: a run diverged from its serial twin")
        if not batched["reference_exact"]:
            failures.append(
                f"{label}: a run diverged from the reference engine")
        if batched["speedup"] < batch_floor:
            failures.append(
                f"{label}: throughput below {batch_floor}x serial "
                f"dispatch ({batched['speedup']}x)")
        census = batched.get("census")
        if not census or "term_sync" not in census:
            failures.append(
                f"{label}: block-termination census missing from the "
                f"JSON payload")
        elif batched["design"] == "with-sync" and not census["term_sync"]:
            failures.append(
                f"{label}: no blocks retired through the sync "
                f"terminator (term_sync == 0)")
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
