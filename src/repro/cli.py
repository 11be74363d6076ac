"""Command-line interface: regenerate every table/figure of the paper.

Usage::

    python -m repro table1              # Table I
    python -m repro fig3 MRPFLTR        # one Fig. 3 panel
    python -m repro speedup             # sec. V-B speedup/IPC claims
    python -m repro accesses            # IM/DM access claims
    python -m repro novscale            # 38%-without-voltage-scaling claim
    python -m repro run SQRT32 --design with-sync --samples 64
    python -m repro calibrate           # re-fit the power model
    python -m repro listing MRPDLN      # program disassembly
    python -m repro synclint --all      # verify sync discipline statically
    python -m repro sweep --jobs 8      # parallel cached design-space sweep
    python -m repro trace MRPDLN        # Perfetto trace of barrier spans
    python -m repro stats sweep-out     # summarize a sweep run manifest
    python -m repro serve --port 8642   # simulation-as-a-service HTTP API
    python -m repro client --quick      # submit a sweep to a running server
    python -m repro obs --server URL    # scrape a running server's metrics
"""

from __future__ import annotations

import argparse
import os
import sys

from .analysis import (
    access_rows,
    format_accesses,
    format_fig3,
    format_novscale,
    format_speedup,
    format_table1,
    power_models,
    reference_runs,
    run_activities,
    speedup_rows,
)
from .kernels import (
    BENCHMARKS,
    DESIGNS,
    build_program,
    check_samples,
    golden_outputs,
    run_benchmark,
)


def _samples(text: str) -> int:
    """argparse type of ``--samples``: a window the DM banks can hold."""
    try:
        return check_samples(int(text))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _add_samples(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--samples", type=_samples, default=64,
                        help="ECG samples per channel (default 64)")


def _runs(args):
    return reference_runs(n_samples=args.samples)


def cmd_table1(args) -> int:
    print(format_table1(power_models(_runs(args))))
    return 0


def cmd_fig3(args) -> int:
    models = power_models(_runs(args))
    benchmarks = [args.benchmark] if args.benchmark else list(BENCHMARKS)
    for bench in benchmarks:
        print(format_fig3(models, bench))
        print()
    return 0


def cmd_speedup(args) -> int:
    print(format_speedup(speedup_rows(_runs(args))))
    return 0


def cmd_accesses(args) -> int:
    print(format_accesses(access_rows(_runs(args))))
    return 0


def cmd_novscale(args) -> int:
    print(format_novscale(power_models(_runs(args))))
    return 0


def cmd_run(args) -> int:
    from .analysis import evaluation_channels

    design = DESIGNS[args.design]
    channels = evaluation_channels(args.samples)
    run = run_benchmark(args.benchmark, design, channels)
    ok = run.outputs == golden_outputs(args.benchmark, channels)
    print(f"{args.benchmark} on {design.name}: "
          f"{'matches' if ok else 'DIVERGES FROM'} the golden model")
    print(run.trace.summary())
    return 0 if ok else 1


def cmd_calibrate(args) -> int:
    from .power import calibrate

    result = calibrate(run_activities(_runs(args)))
    print(result.report())
    print("\nPaste into src/repro/power/defaults.py to refresh defaults.")
    return 0


def cmd_listing(args) -> int:
    program = build_program(args.benchmark, not args.baseline)
    print(program.listing())
    return 0


def _prepared_machine(args):
    """Build a loaded, un-run machine for an instrumented subcommand."""
    from .analysis import evaluation_channels
    from .kernels.suite import prepare_benchmark

    machine, _ = prepare_benchmark(args.benchmark, DESIGNS[args.design],
                                   evaluation_channels(args.samples))
    return machine


def _instrumented_run(args, probe):
    """Run one benchmark with a probe attached; returns the machine."""
    machine = _prepared_machine(args)
    if probe is not None:
        machine.attach_probe(probe)
    machine.run()
    return machine


def cmd_profile(args) -> int:
    from .analysis.profiler import ProfileProbe, format_profile, hottest_pcs

    probe = ProfileProbe()
    program = _instrumented_run(args, probe).program
    print(format_profile(probe, program))
    print("\nhottest instructions:")
    for pc, text, cycles in hottest_pcs(probe, program, top=8):
        print(f"  {pc:5d}  {cycles:8d}  {text}")
    return 0


def cmd_timeline(args) -> int:
    from .analysis.timeline import TimelineProbe

    probe = TimelineProbe(max_cycles=args.cycles)
    _instrumented_run(args, probe)
    compress = max(1, probe.cycles_recorded // args.width)
    print(probe.render(width=args.width, compress=compress))
    print(f"strict lockstep ratio: {probe.lockstep_ratio():.2f}")
    return 0


def cmd_vcd(args) -> int:
    from .platform.vcd import VcdProbe

    probe = VcdProbe(args.output)
    machine = _instrumented_run(args, probe)   # run() finishes the probe
    print(f"wrote {args.output} ({machine.trace.cycles} cycles)")
    return 0


def _span_labels(benchmark: str, design) -> dict[int, str]:
    """Checkpoint index -> span name, from the synclint region tree."""
    from .sync.verifier import lint_assembly, lint_minic

    bench = BENCHMARKS[benchmark]
    if bench.kind == "minic":
        report = lint_minic(bench.source, name=benchmark,
                            sync_mode="auto" if design.sync_enabled
                            else "none")
    else:
        report = lint_assembly(bench.source, name=benchmark,
                               sync_enabled=design.sync_enabled)
    return report.region_labels(build_program(benchmark,
                                              design.sync_enabled))


def cmd_trace(args) -> int:
    from .telemetry import BarrierTracer, MetricsRegistry, write_trace

    design = DESIGNS[args.design]
    machine = _prepared_machine(args)
    if machine.synchronizer is None:
        print(f"trace: design {design.name!r} has no synchronizer — "
              "barrier spans need one (try --design with-sync)")
        return 2
    tracer = BarrierTracer(machine,
                           labels=_span_labels(args.benchmark, design))
    machine.run()

    payload = write_trace(tracer, args.out, benchmark=args.benchmark)
    registry = MetricsRegistry.for_machine(machine, tracer)
    snapshot = registry.snapshot()
    stats = machine.engine_stats
    print(f"wrote {args.out}: {len(payload['traceEvents'])} events, "
          f"{len(tracer.spans)} barrier spans over "
          f"{machine.trace.cycles} cycles")
    print(f"fast engine {'engaged' if stats.engaged else 'stood down'}: "
          f"{stats.lockstep_cycles} lockstep + {stats.divergent_cycles} "
          f"divergent + {stats.sleep_cycles} sleep cycles on fast paths, "
          f"{machine.trace.cycles - stats.fast_cycles} step() cycles")
    print(f"  superblocks: {stats.fused_cycles} cycles fused over "
          f"{stats.fused_blocks} blocks, {stats.deopt_count} deopts")
    terms = [(reason, getattr(stats, "term_" + reason))
             for reason in ("mem", "sync", "stop", "diverge", "cap")]
    census = ", ".join(f"{reason}={count}" for reason, count in terms
                       if count)
    print(f"  block terminations: {census or 'none'}")
    print(f"  barrier fast path: {stats.sync_fused_rmws} merged "
          f"checkpoint RMWs replayed by the lockstep and divergent bursts "
          f"without step()")
    for index, row in sorted(snapshot["barriers"]["checkpoints"].items(),
                             key=lambda kv: int(kv[0])):
        print(f"  {row['label']:32s} {row['spans']:5d} spans  "
              f"wait p50/p90/max {row['wait_p50']}/{row['wait_p90']}/"
              f"{row['wait_max']} cycles")
    print("open in https://ui.perfetto.dev")
    return 0


def cmd_stats(args) -> int:
    from .telemetry import summarize_manifest

    try:
        print(summarize_manifest(args.manifest))
    except FileNotFoundError as exc:
        print(f"stats: {exc}")
        return 2
    return 0


def cmd_syncstats(args) -> int:
    machine = _instrumented_run(args, None)
    if machine.synchronizer is None:
        print("design has no synchronizer")
        return 1
    from .sync.points import DEFAULT_SYNC_BASE

    print(machine.synchronizer.stats_report(base=DEFAULT_SYNC_BASE))
    return 0


def _synclint_target(target: str, args):
    """Lint one synclint target: a bundled benchmark name or a file path.

    :returns: a :class:`~repro.sync.verifier.LintReport`.
    """
    from .sync.verifier import lint_assembly, lint_minic

    sync_enabled = not args.baseline
    if target in BENCHMARKS:
        bench = BENCHMARKS[target]
        flavour = "baseline" if args.baseline else "with-sync"
        name = f"{target}[{flavour}]"
        if bench.kind == "minic":
            return lint_minic(bench.source, name=name,
                              sync_mode=args.sync_mode
                              if sync_enabled else "none")
        return lint_assembly(bench.source, name=name,
                             sync_enabled=sync_enabled,
                             loads_divergent=args.strict)
    with open(target, encoding="utf-8") as handle:
        source = handle.read()
    lang = args.lang
    if lang == "auto":
        lang = ("minic" if target.endswith((".mc", ".minic", ".c"))
                else "asm")
    if lang == "minic":
        return lint_minic(source, name=target, sync_mode=args.sync_mode)
    return lint_assembly(source, name=target, filename=target,
                         sync_enabled=sync_enabled,
                         loads_divergent=args.strict)


def _synclint_crosscheck(target: str, report, args) -> int:
    """Run a bundled benchmark and replay its barrier traces against the
    static region tree; returns a process exit code."""
    from .analysis import evaluation_channels
    from .kernels.suite import WITH_SYNC, prepare_benchmark
    from .sync.verifier import SyncCrosscheck

    if target not in BENCHMARKS:
        print(f"synclint: --crosscheck needs a bundled benchmark, "
              f"not {target!r}")
        return 2
    machine, _ = prepare_benchmark(target, WITH_SYNC,
                                   evaluation_channels(args.samples))
    check = SyncCrosscheck(machine, report)
    machine.run()
    result = check.result()
    print(result.render())
    return 0 if result.ok else 1


def cmd_synclint(args) -> int:
    import json as _json

    from .compiler.lexer import CompileError
    from .sync.instrument import InstrumentationError

    targets = list(args.targets)
    if args.all:
        targets.extend(t for t in BENCHMARKS if t not in targets)
    if not targets:
        print("synclint: nothing to lint "
              "(name a file or benchmark, or pass --all)")
        return 2

    reports = []
    for target in targets:
        try:
            reports.append(_synclint_target(target, args))
        except (InstrumentationError, CompileError, OSError) as exc:
            print(f"synclint: {target}: {exc}", file=sys.stderr)
            return 2

    if args.json:
        payload = [r.to_json() for r in reports]
        print(_json.dumps(payload[0] if len(payload) == 1 else payload,
                          indent=2))
    else:
        for report in reports:
            print(report.render())

    status = 0
    if any(r.errors for r in reports):
        status = 1
    elif args.werror and any(r.warnings for r in reports):
        status = 1

    if args.crosscheck:
        for target, report in zip(targets, reports):
            code = _synclint_crosscheck(target, report, args)
            status = max(status, code)
    return status


def _sweep_spec(args, name: str):
    """Build the grid `SweepSpec` shared by ``sweep`` and ``client``.

    :returns: ``(spec, benchmarks, design_names, samples)``.
    """
    from .exec import SweepSpec

    benchmarks = args.benchmarks or list(BENCHMARKS)
    designs = [DESIGNS[key]
               for key in (args.designs or ("with-sync", "without-sync"))]
    samples = list(args.samples or [64])
    if args.quick:
        samples = [min(n, 16) for n in samples]
    spec = SweepSpec.grid(name, benchmarks, designs,
                          samples=tuple(samples), seed=args.seed)
    return spec, benchmarks, [design.name for design in designs], samples


def cmd_sweep(args) -> int:
    import json as _json

    from .exec import DiskCache, SweepExecutor
    from .exec.progress import SOURCE_LABELS

    spec, benchmarks, designs, samples = _sweep_spec(args, "cli-sweep")
    cache = None if args.no_cache else DiskCache(args.cache_dir)
    cache_label = "off" if cache is None else str(cache.root)
    if cache is not None and args.remote_cache:
        from .exec import HttpPeerCache, MemoryCache, TieredCache

        cache = TieredCache(MemoryCache(max_entries=256), cache,
                            remote=HttpPeerCache(args.remote_cache))
        cache_label += f" + peer {args.remote_cache}"
    print(f"sweep: {len(spec)} runs, jobs={args.jobs}, "
          f"cache={cache_label}"
          f"{' (refresh)' if args.refresh else ''}")

    manifest = None
    if not args.no_manifest:
        from .telemetry import SweepManifestWriter

        manifest = SweepManifestWriter(args.manifest, name=spec.name)

    from .obs.context import TraceContext

    trace = TraceContext.new()
    with SweepExecutor(jobs=args.jobs, cache=cache, timeout=args.timeout,
                       refresh=args.refresh, batch=args.batch,
                       log=print) as executor:
        outcomes = executor.run(spec, manifest=manifest,
                                trace_id=trace.trace_id)
    metrics = executor.last_metrics
    if manifest is not None:
        print(f"manifest: {manifest.manifest_path} "
              f"(+ {manifest.runs_path.name})")

    print()
    print(f"  {'benchmark':9s}  {'design':13s}  {'n':>4s}  {'cycles':>9s}"
          f"  {'ops/cyc':>7s}  {'golden':>6s}  origin")
    for outcome in outcomes:
        request = outcome.request
        if outcome.ok:
            run = outcome.benchmark_run()
            golden = {True: "ok", False: "FAIL", None: "-"}[
                outcome.golden_match]
            print(f"  {request.benchmark:9s}  {request.design.name:13s}  "
                  f"{request.n_samples:4d}  {run.cycles:9d}  "
                  f"{run.ops_per_cycle:7.2f}  {golden:>6s}  "
                  f"{SOURCE_LABELS[outcome.source]}")
        else:
            print(f"  {request.benchmark:9s}  {request.design.name:13s}  "
                  f"{request.n_samples:4d}  {'-':>9s}  {'-':>7s}  "
                  f"{'-':>6s}  ERROR: {outcome.error}")
    print()
    print(metrics.report())
    if cache is not None:
        print(f"cache: {cache.stats.summary()}")

    if args.json:
        payload = {
            "spec": {"benchmarks": benchmarks, "designs": designs,
                     "samples": samples, "seed": args.seed,
                     "jobs": args.jobs},
            "metrics": metrics.as_dict(),
            "cache": None if cache is None else cache.stats.as_dict(),
            "runs": [
                {"digest": o.digest, "cached": o.cached, "error": o.error,
                 "golden_match": o.golden_match,
                 "run": None if not o.ok else o.payload["run"]}
                for o in outcomes
            ],
        }
        with open(args.json, "w", encoding="utf-8") as sink:
            _json.dump(payload, sink, indent=2)
        print(f"wrote {args.json}")

    if any(not o.ok or o.golden_match is False for o in outcomes):
        return 1
    if args.expect_cached and metrics.executed:
        print(f"expected an all-cached sweep but {metrics.executed} runs "
              "executed")
        return 2
    return 0


def cmd_serve(args) -> int:
    import asyncio

    from .exec import WIRE_SCHEMA, HttpPeerCache, MemoryCache
    from .obs.log import configure_logging
    from .serve import SweepService, default_service_cache, serve_forever

    configure_logging(json_output=args.log_json, level=args.log_level)
    if args.no_cache and args.peer:
        print("serve: --no-cache and --peer are mutually exclusive "
              "(the peer tier lives inside the cache)", file=sys.stderr)
        return 2
    if args.no_cache:
        cache = MemoryCache(max_entries=512)
        cache_label = "memory only"
    else:
        remote = HttpPeerCache(args.peer) if args.peer else None
        cache = default_service_cache(args.cache_dir, remote=remote)
        cache_label = str(cache.disk.root)
        if args.peer:
            cache_label += f" + peer {args.peer}"

    service = SweepService(cache=cache, state_dir=args.state_dir,
                           jobs=args.jobs, batch=args.batch,
                           timeout=args.timeout,
                           concurrency=args.concurrency)

    def ready(address):
        host, port = address
        print(f"repro-serve listening on http://{host}:{port} "
              f"(wire schema {WIRE_SCHEMA}, cache: {cache_label}, "
              f"state: {service.state_dir})", flush=True)

    try:
        asyncio.run(serve_forever(service, args.host, args.port,
                                  ready=ready))
    except KeyboardInterrupt:
        print("serve: shutting down")
    finally:
        service.close()
    return 0


def cmd_client(args) -> int:
    import json as _json

    from .exec.progress import SOURCE_LABELS
    from .serve import ServeClient, ServiceError

    client = ServeClient(args.server, timeout=args.timeout)
    spec, _, _, _ = _sweep_spec(args, args.name)
    try:
        health = client.healthz()
    except (ServiceError, OSError) as exc:
        print(f"client: cannot reach {client.base_url}: {exc}",
              file=sys.stderr)
        return 2
    print(f"client: {client.base_url} (repro {health.get('version')}, "
          f"wire schema {health.get('wire_schema')}); "
          f"submitting {len(spec)} runs")

    try:
        job = client.submit(spec)
    except ServiceError as exc:
        print(f"client: submission rejected: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"client: cannot reach {client.base_url}: {exc}",
              file=sys.stderr)
        return 2
    job_id = job["id"]
    trace_id = job.get("trace_id") or (client.last_trace.trace_id
                                       if client.last_trace else "?")
    print(f"job {job_id} accepted (trace {trace_id})")

    def lost(exc: OSError) -> int:
        print(f"client: {client.base_url}: {exc}", file=sys.stderr)
        return 2

    # server errors are caught apart from the prints, so a closed
    # stdout still reaches main's handler
    seen = 0
    events = client.events(job_id)
    while True:
        try:
            event = next(events, None)
        except OSError as exc:
            return lost(exc)
        if event is None or event.get("event") == "end":
            break
        seen += 1
        origin = SOURCE_LABELS.get(event.get("source"), "?")
        line = f"  [{seen}/{len(spec)}] {origin:4s} {event.get('label', '?')}"
        if event.get("error"):
            line += f"  ({event['error']})"
        print(line, flush=True)

    try:
        final = client.wait(job_id, timeout=args.timeout)
    except OSError as exc:
        return lost(exc)
    runs = final.get("runs") or []
    counts = {key: sum(1 for row in runs if row["source"] == key)
              for key in ("executed", "cache", "coalesced", "deduped",
                          "error")}
    mismatches = sum(1 for row in runs if row["golden_match"] is False)
    print(f"job {job_id} {final['status']}: {len(runs)} runs — "
          f"{counts['executed']} executed, {counts['cache']} cached, "
          f"{counts['coalesced']} coalesced, {counts['deduped']} deduped, "
          f"{counts['error']} failed, {mismatches} golden mismatches")
    if final.get("error"):
        print(f"  server error: {final['error']}")

    if args.json:
        with open(args.json, "w", encoding="utf-8") as sink:
            _json.dump(final, sink, indent=2, sort_keys=True)
        print(f"wrote {args.json}")

    if final["status"] != "done" or counts["error"] or mismatches:
        return 1
    if args.expect_cached and counts["executed"]:
        print(f"expected an all-cached sweep but {counts['executed']} "
              "runs executed on the server")
        return 2
    return 0


#: the curated metric families ``repro obs --server`` summarizes
_OBS_FAMILIES = (
    "repro_uptime_seconds",
    "repro_build_info",
    "repro_http_requests_total",
    "repro_http_requests_in_flight",
    "repro_jobs_submitted_total",
    "repro_jobs",
    "repro_jobs_in_flight",
    "repro_sweep_request_latency_seconds_count",
    "repro_sweep_request_latency_seconds_sum",
    "repro_sweep_queue_wait_seconds_count",
    "repro_runs_total",
    "repro_coalescer_claims_total",
    "repro_coalescer_handoffs_total",
    "repro_coalescer_inflight",
    "repro_cache_requests_total",
    "repro_cache_stores_total",
    "repro_cache_promotions_total",
    "repro_cache_evictions_total",
    "repro_worker_utilization",
)


def cmd_obs(args) -> int:
    """Scrape a running ``repro serve``'s Prometheus metrics."""
    from .serve import ServeClient, ServiceError

    client = ServeClient(args.server, timeout=args.timeout)
    try:
        text = client.metrics_prometheus()
    except (ServiceError, OSError) as exc:
        print(f"obs: cannot reach {client.base_url}: {exc}",
              file=sys.stderr)
        return 2
    if args.raw:
        print(text, end="")
        return 0
    print(f"obs: {client.base_url} (curated families; --raw for the "
          "full exposition)")
    for line in text.splitlines():
        if line.startswith("#") or not line:
            continue
        name = line.split("{", 1)[0].split(" ", 1)[0]
        if name in _OBS_FAMILIES:
            print(f"  {line}")
    return 0


def cmd_energy(args) -> int:
    from .analysis.energy import format_energy

    print(format_energy(power_models(_runs(args))))
    return 0


def cmd_report(args) -> int:
    from .analysis.report import full_report

    text = full_report(n_samples=args.samples)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as sink:
            sink.write(text + "\n")
        print(f"wrote {args.output}")
    else:
        print(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of Dogan et al., DATE 2013: "
                    "synchronizing code execution on ULP multi-core "
                    "biosignal platforms.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table1", help="regenerate Table I")
    _add_samples(p)
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("fig3", help="regenerate Fig. 3 panels")
    p.add_argument("benchmark", nargs="?", choices=list(BENCHMARKS))
    _add_samples(p)
    p.set_defaults(func=cmd_fig3)

    p = sub.add_parser("speedup", help="speedup / ops-per-cycle table")
    _add_samples(p)
    p.set_defaults(func=cmd_speedup)

    p = sub.add_parser("accesses", help="IM/DM bank access table")
    _add_samples(p)
    p.set_defaults(func=cmd_accesses)

    p = sub.add_parser("novscale",
                       help="savings without voltage scaling")
    _add_samples(p)
    p.set_defaults(func=cmd_novscale)

    p = sub.add_parser("run", help="run one benchmark and verify it")
    p.add_argument("benchmark", choices=list(BENCHMARKS))
    p.add_argument("--design", choices=list(DESIGNS), default="with-sync")
    _add_samples(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("calibrate", help="re-fit the power model")
    _add_samples(p)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("listing", help="disassemble a benchmark image")
    p.add_argument("benchmark", choices=list(BENCHMARKS))
    p.add_argument("--baseline", action="store_true",
                   help="show the build without sync points")
    p.set_defaults(func=cmd_listing)

    def instrumented(name, help_text):
        q = sub.add_parser(name, help=help_text)
        q.add_argument("benchmark", choices=list(BENCHMARKS))
        q.add_argument("--design", choices=list(DESIGNS),
                       default="with-sync")
        _add_samples(q)
        return q

    p = instrumented("profile", "cycle-attribution hot-spot profile")
    p.set_defaults(func=cmd_profile)

    p = instrumented("timeline", "per-core activity timeline")
    p.add_argument("--width", type=int, default=110)
    p.add_argument("--cycles", type=int, default=50_000)
    p.set_defaults(func=cmd_timeline)

    p = instrumented("vcd", "dump a VCD waveform of the run")
    p.add_argument("-o", "--output", default="platform.vcd")
    p.set_defaults(func=cmd_vcd)

    p = instrumented("syncstats", "per-checkpoint contention statistics")
    p.set_defaults(func=cmd_syncstats)

    p = sub.add_parser(
        "synclint",
        help="statically verify SINC/SDEC sync discipline",
        description="Static sync-coverage verifier: checks balance, "
                    "nesting, aliasing and divergence coverage of "
                    "checkpoint regions (see docs/synclint.md).")
    p.add_argument("targets", nargs="*",
                   help="assembly/minic files or bundled benchmark names "
                        f"({', '.join(BENCHMARKS)})")
    p.add_argument("--all", action="store_true",
                   help="lint every bundled benchmark (CI regression gate)")
    p.add_argument("--json", action="store_true",
                   help="emit the machine-readable JSON report")
    p.add_argument("--lang", choices=("auto", "asm", "minic"),
                   default="auto",
                   help="source language for file targets "
                        "(default: by extension)")
    p.add_argument("--sync-mode", choices=("auto", "all", "none"),
                   default="auto", help="minic sync insertion mode")
    p.add_argument("--baseline", action="store_true",
                   help="lint the build without sync points")
    p.add_argument("--strict", action="store_true",
                   help="treat every memory load as per-core "
                        "(fully conservative divergence analysis)")
    p.add_argument("--werror", action="store_true",
                   help="exit non-zero on warnings too")
    p.add_argument("--crosscheck", action="store_true",
                   help="also run bundled benchmarks and replay observed "
                        "barrier traces against the static region tree")
    _add_samples(p)
    p.set_defaults(func=cmd_synclint)

    def add_sweep_grid(q):
        """The spec-grid flags shared by `sweep` and `client`."""
        q.add_argument("--benchmarks", nargs="+",
                       choices=list(BENCHMARKS), default=None,
                       help="kernels to sweep (default: all)")
        q.add_argument("--designs", nargs="+", choices=list(DESIGNS),
                       default=None,
                       help="designs to sweep (default: with-sync "
                            "without-sync)")
        q.add_argument("--samples", nargs="+", type=_samples, default=None,
                       metavar="N",
                       help="per-channel window sizes (default: 64)")
        q.add_argument("--seed", type=int, default=2013,
                       help="ECG generator seed")
        q.add_argument("--quick", action="store_true",
                       help="clamp windows to 16 samples (CI smoke)")

    p = sub.add_parser(
        "sweep",
        help="run a benchmark x design sweep in parallel, with caching",
        description="Parallel sweep executor: schedules independent "
                    "simulations across worker processes and serves "
                    "unchanged runs from a content-addressed result "
                    "cache (see docs/performance.md).")
    add_sweep_grid(p)
    p.add_argument("-j", "--jobs", type=int, default=0,
                   help="worker processes (0 = in-process serial)")
    p.add_argument("--cache-dir", default=None,
                   help="result cache directory "
                        "(default: ~/.cache/repro or $REPRO_CACHE_DIR)")
    p.add_argument("--no-cache", action="store_true",
                   help="disable the result cache entirely")
    p.add_argument("--refresh", action="store_true",
                   help="ignore cached entries but store fresh results")
    p.add_argument("--timeout", type=float, default=None,
                   help="per-run wall-clock budget in seconds")
    p.add_argument("--batch", action=argparse.BooleanOptionalAction,
                   default=True,
                   help="coalesce same-image runs into array-of-machines "
                        "batches (bit-identical results; --no-batch "
                        "forces per-run dispatch)")
    p.add_argument("--remote-cache", default=None, metavar="URL",
                   help="read/write-through peer cache tier: the base "
                        "URL of a running `repro serve` "
                        "(see docs/service.md)")
    p.add_argument("--expect-cached", action="store_true",
                   help="exit 2 unless every run was a cache hit "
                        "(CI warm-cache assertion)")
    p.add_argument("--json", default=None, metavar="FILE",
                   help="also write results + metrics as JSON")
    p.add_argument("--manifest", default="sweep-out", metavar="DIR",
                   help="directory for the run manifest "
                        "(manifest.json + runs.jsonl; default: sweep-out)")
    p.add_argument("--no-manifest", action="store_true",
                   help="skip writing the run manifest")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser(
        "serve",
        help="run the simulation-as-a-service HTTP API",
        description="Long-lived async sweep service: accepts wire-format "
                    "SweepSpec documents over HTTP, coalesces identical "
                    "in-flight runs across submissions, and serves "
                    "results from a shared memory/disk/peer cache tier "
                    "(see docs/service.md).")
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address (default: 127.0.0.1)")
    p.add_argument("--port", type=int, default=8642,
                   help="TCP port (default: 8642; 0 = ephemeral)")
    p.add_argument("-j", "--jobs", type=int, default=0,
                   help="executor worker processes "
                        "(0 = in-process serial)")
    p.add_argument("--concurrency", type=int, default=2,
                   help="sweep worker threads (min 2 so concurrent "
                        "submissions coalesce; default: 2)")
    p.add_argument("--cache-dir", default=None,
                   help="disk-cache tier directory "
                        "(default: ~/.cache/repro or $REPRO_CACHE_DIR)")
    p.add_argument("--no-cache", action="store_true",
                   help="keep results in memory only (nothing persists)")
    p.add_argument("--peer", default=None, metavar="URL",
                   help="peer cache tier: the base URL of another "
                        "`repro serve` to read/write through")
    p.add_argument("--state-dir", default="serve-state",
                   help="root for per-job manifest directories "
                        "(default: serve-state)")
    p.add_argument("--timeout", type=float, default=None,
                   help="per-run wall-clock budget in seconds")
    p.add_argument("--batch", action=argparse.BooleanOptionalAction,
                   default=True,
                   help="array-of-machines batching in the executor")
    p.add_argument("--log-json", action="store_true",
                   help="structured JSON log lines on stderr "
                        "(default: human-readable key=value text)")
    p.add_argument("--log-level", default="info",
                   choices=("debug", "info", "warning", "error"),
                   help="log verbosity (default: info)")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "client",
        help="submit a sweep to a running `repro serve`",
        description="Blocking client for the sweep service: builds the "
                    "same grid spec as `repro sweep`, submits it over "
                    "the wire protocol, streams per-run progress events "
                    "and verifies the outcome (see docs/service.md).")
    p.add_argument("--server", default="http://127.0.0.1:8642",
                   help="service base URL "
                        "(default: http://127.0.0.1:8642)")
    add_sweep_grid(p)
    p.add_argument("--name", default="cli-client",
                   help="sweep name recorded in the job manifest")
    p.add_argument("--timeout", type=float, default=300.0,
                   help="socket/wait timeout in seconds (default: 300)")
    p.add_argument("--expect-cached", action="store_true",
                   help="exit 2 if the server executed any run afresh "
                        "(CI warm-cache assertion; coalesced and cached "
                        "sources both count as warm)")
    p.add_argument("--json", default=None, metavar="FILE",
                   help="write the final job resource as JSON")
    p.set_defaults(func=cmd_client)

    p = sub.add_parser(
        "trace",
        help="export a Perfetto trace of one benchmark's barrier spans",
        description="Event-driven barrier tracing: runs one benchmark "
                    "with the telemetry tracer attached (the fast engine "
                    "stays engaged) and writes Chrome trace-event JSON "
                    "for ui.perfetto.dev (see docs/telemetry.md).")
    p.add_argument("benchmark", type=str.upper, choices=list(BENCHMARKS),
                   help="benchmark to trace (case-insensitive)")
    p.add_argument("--design", choices=list(DESIGNS), default="with-sync")
    p.add_argument("--out", default="trace.json", metavar="FILE",
                   help="output JSON path (default: trace.json)")
    _add_samples(p)
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser(
        "stats",
        help="summarize a sweep run manifest",
        description="Render the manifest.json / runs.jsonl a "
                    "`repro sweep` or a served job left behind: per-run "
                    "outcomes, cache hits, telemetry totals, per-phase "
                    "wall/CPU seconds and the slowest executed runs "
                    "(see docs/telemetry.md).")
    p.add_argument("manifest", nargs="?", default="sweep-out",
                   help="sweep directory, manifest.json or runs.jsonl "
                        "(default: sweep-out)")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser(
        "obs",
        help="scrape a running `repro serve`'s metrics",
        description="Scrape a running `repro serve`'s Prometheus "
                    "metrics (see docs/observability.md); `repro stats` "
                    "summarizes a sweep manifest.")
    p.add_argument("--server", required=True, metavar="URL",
                   help="base URL of the service to scrape")
    p.add_argument("--raw", action="store_true",
                   help="with --server: print the full Prometheus "
                        "exposition instead of the curated summary")
    p.add_argument("--timeout", type=float, default=10.0,
                   help="scrape socket timeout in seconds (default: 10)")
    p.set_defaults(func=cmd_obs)

    p = sub.add_parser("energy", help="energy-per-op table")
    _add_samples(p)
    p.set_defaults(func=cmd_energy)

    p = sub.add_parser("report",
                       help="full reproduction report (all artifacts)")
    p.add_argument("-o", "--output", default=None)
    _add_samples(p)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        status = args.func(args)
        if sys.stdout is not None:
            sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed our stdout early (``| head``): point it at
        # devnull so the flush at exit cannot raise again
        if sys.stdout is None:
            raise
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
