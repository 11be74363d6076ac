"""Per-layer tracing from outside the program.

:class:`LayerTracer` wraps the public calls into each layer of
``repro`` (the table in :data:`TARGETS`), records one span per call with
its parent span, and turns the spans plus the counters the program
already keeps (``EngineStats``, ``BatchStats``, cache hits) into
per-layer metrics.  Nothing under ``src/`` changes: functions are
replaced in every ``repro`` module that imported them, methods on their
class, and :meth:`LayerTracer.uninstall` puts the originals back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time

#: (layer, module, attribute) — ``Class.method`` for methods
TARGETS = (
    ("compiler", "repro.compiler", "compile_source"),
    ("isa", "repro.isa.assembler", "assemble"),
    ("cpu.blocks", "repro.cpu.blocks", "BlockTable.at"),
    ("platform.engine", "repro.platform.machine", "Machine.run"),
    ("cpu.vec", "repro.cpu.vec", "run_batch"),
    ("cpu.vec", "repro.cpu.vec", "VecTable.at"),
    ("exec.job", "repro.exec.job", "request_digest"),
    ("exec.job", "repro.exec.job", "execute_request"),
    ("exec.job", "repro.exec.job", "execute_batch"),
    ("dsp", "repro.exec.job", "resolve_channels"),
    ("dsp", "repro.kernels.suite", "golden_outputs"),
    ("exec.cache", "repro.exec.cache", "MemoryCache.get"),
    ("exec.cache", "repro.exec.cache", "MemoryCache.put"),
    ("exec.cache", "repro.exec.cache", "DiskCache.get"),
    ("exec.cache", "repro.exec.cache", "DiskCache.put"),
    ("exec.cache", "repro.exec.cache", "TieredCache.get"),
    ("exec.cache", "repro.exec.cache", "TieredCache.put"),
    ("exec.scheduler", "repro.exec.scheduler", "SweepExecutor.run"),
    ("telemetry", "repro.telemetry.manifest", "SweepManifestWriter.__init__"),
    ("telemetry", "repro.telemetry.manifest",
     "SweepManifestWriter.note_outcome"),
    ("telemetry", "repro.telemetry.manifest", "SweepManifestWriter.finalize"),
    ("obs", "repro.obs.spans", "SpanRecorder.to_perfetto"),
    ("serve", "repro.serve.client", "ServeClient.submit"),
    ("serve", "repro.serve.client", "ServeClient.events"),
    ("serve", "repro.serve.client", "ServeClient.job"),
    ("serve", "repro.serve.app", "SweepService.submit"),
    ("serve", "repro.serve.coalescer", "InflightCoalescer.claim"),
)

#: every layer, in the order of :data:`TARGETS`
LAYERS = tuple(dict.fromkeys(layer for layer, _, _ in TARGETS))

#: layers whose work is one-time compilation: their metrics cover the
#: whole traced process (set-up included) rather than one pass
SETUP_LAYERS = ("compiler", "isa", "cpu.blocks")

#: layers whose busy time is named after the work it covers
BUSY_NAMES = {"telemetry": "telemetry.manifest_s",
              "obs": "obs.trace_write_s"}


class Span:
    """One wrapped call."""

    __slots__ = ("layer", "name", "start", "end", "parent", "info",
                 "children_s")

    def __init__(self, layer, name, start, parent):
        self.layer = layer
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.info = None
        self.children_s = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


def _observe(name: str, args: tuple, result):
    """Counters read at the span boundary (None when nothing to read)."""
    if name == "Machine.run":
        machine = args[0]
        return {"cycles": machine.trace.cycles,
                "stats": machine.engine_stats.as_dict()}
    if name == "run_batch":
        return result.as_dict()
    if name.endswith(".get") and "Cache" in name:
        return result is not None
    if name == "InflightCoalescer.claim":
        return bool(result[1])
    if name.endswith(".at"):
        return result is not None
    return None


class LayerTracer:
    """Install wrappers, collect spans, compute per-layer metrics."""

    def __init__(self):
        self.spans: list[Span] = []
        #: run requests the traced passes submitted — the base of
        #: ``exec.job.digests_per_run`` (set by ``run.py``)
        self.requests = 0
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []

    # -- wrapping ----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, layer: str, name: str, fn):
        tracer = self

        if inspect.isgeneratorfunction(fn):
            # a streaming call: timed from the call to the generator's end
            @functools.wraps(fn)
            def generator(*args, **kwargs):
                stack = tracer._stack()
                span = Span(layer, name, time.perf_counter(),
                            stack[-1] if stack else None)
                try:
                    yield from fn(*args, **kwargs)
                finally:
                    span.end = time.perf_counter()
                    tracer.spans.append(span)
            return generator

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            span = Span(layer, name, time.perf_counter(), parent)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if parent is not None:
                    parent.children_s += span.duration
                tracer.spans.append(span)
            span.info = _observe(name, args, result)
            return result
        return wrapper

    def install(self) -> None:
        """Wrap every target; :meth:`uninstall` undoes it."""
        for layer, module_name, attr in TARGETS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[meth]
                self._restore.append((owner, meth, original))
                setattr(owner, meth, self._wrap(layer, attr, original))
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(layer, attr, original)
            # replace the name wherever a repro module imported it
            for mod in list(sys.modules.values()):
                name = getattr(mod, "__name__", "") or ""
                if not name.startswith("repro"):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def mark(self) -> int:
        """Index splitting spans recorded so far from later ones."""
        return len(self.spans)

    # -- analysis ----------------------------------------------------------

    def layer_metrics(self, *, since: int, passes: int) -> dict:
        """The per-layer metrics of spans and counters (``BENCHMARK.json``
        lists every per-layer name).

        :param since: spans before this index belong to set-up; only
            :data:`SETUP_LAYERS` include them.
        :param passes: timed passes the later spans cover (the divisor
            that makes every other metric per pass).
        """
        spans = self.spans
        phase = spans[since:]
        per = max(passes, 1)
        setup_ids = {id(s) for s in spans[:since]}
        out: dict[str, float] = {}

        def outermost(span):
            parent = span.parent
            while parent is not None:
                if parent.layer == span.layer:
                    return False
                parent = parent.parent
            return True

        def per_pass(pairs) -> float:
            """Sum of ``(span, value)`` pairs per pass; set-up spans (only
            passed for one-time work) count once."""
            once = every = 0.0
            for span, value in pairs:
                if id(span) in setup_ids:
                    once += value
                else:
                    every += value
            return once + every / per

        for layer in LAYERS:
            chosen = spans if layer in SETUP_LAYERS else phase
            mine = [s for s in chosen if s.layer == layer]
            out[f"{layer}.calls"] = per_pass((s, 1) for s in mine)
            out[BUSY_NAMES.get(layer, f"{layer}.busy_s")] = per_pass(
                (s, s.duration) for s in mine if outermost(s))
            out[f"{layer}.self_s"] = per_pass(
                (s, s.duration - s.children_s) for s in mine)

        def named(name, pool=phase):
            return [s for s in pool if s.name == name]

        # cpu.blocks / cpu.vec compiles (the at() calls happen on misses)
        block_at = named("BlockTable.at", spans)
        out["cpu.blocks.compiled"] = per_pass(
            (s, 1) for s in block_at if s.info)
        out["cpu.blocks.compile_s"] = per_pass(
            (s, s.duration) for s in block_at)
        out["cpu.vec.compile_s"] = per_pass(
            (s, s.duration) for s in named("VecTable.at", spans))

        # platform.engine: EngineStats summed over every finished machine,
        # starting from the program's own zero counters (all zero when
        # the engine did not run; a renamed counter raises KeyError)
        from repro.platform.engine import EngineStats

        runs = [s for s in named("Machine.run") if s.info is not None]
        total = {key: 0 for key, value in EngineStats().as_dict().items()
                 if not isinstance(value, bool)}
        cycles = 0
        for span in runs:
            cycles += span.info["cycles"]
            for key in total:
                total[key] += span.info["stats"][key]
        cyc = max(cycles, 1)
        awake = max(cycles - total["sleep_cycles"], 1)
        lock = total["lockstep_cycles"]
        fused = total["fused_cycles"]
        out["platform.engine.lockstep_share"] = lock / cyc
        out["platform.engine.closure_share"] = max(lock - fused, 0) / cyc
        out["platform.engine.divergent_share"] = (
            total["divergent_cycles"] / cyc)
        out["platform.engine.sleep_share"] = total["sleep_cycles"] / cyc
        out["platform.engine.reference_share"] = (
            max(cycles - total["fast_cycles"], 0) / cyc)
        out["platform.engine.fused_coverage"] = fused / awake
        out["platform.engine.deopts_per_kcycle"] = (
            total["deopt_count"] * 1000 / cyc)
        preds = total["pred_blocks"] + total["pred_aborts"]
        out["platform.engine.pred_abort_frac"] = (
            total["pred_aborts"] / preds if preds else 0.0)
        out["platform.engine.sync_rmws"] = total["sync_fused_rmws"] / per

        # cpu.vec: BatchStats of every run_batch call
        batches = [s.info for s in named("run_batch") if s.info is not None]
        batched = sum(b["batched"] for b in batches)
        out["cpu.vec.batched_frac"] = batched / len(runs) if runs else 0.0
        out["cpu.vec.vector_share"] = total["vector_cycles"] / cyc
        out["cpu.vec.early_peel_frac"] = (
            sum(b["early_peels"] for b in batches) / batched
            if batched else 0.0)

        # exec.job + dsp
        digests = named("request_digest")
        executes = named("execute_request") + named("execute_batch")
        out["exec.job.digest_s"] = sum(s.duration for s in digests) / per
        out["exec.job.digests_per_run"] = (
            len(digests) / self.requests if self.requests else 0.0)
        execute_s = sum(s.duration for s in executes
                        if not _inside(s, ("execute_batch",
                                           "execute_request")))
        run_s = sum(s.duration for s in runs
                    if _inside(s, ("execute_batch", "execute_request")))
        out["exec.job.execute_s"] = execute_s / per
        out["exec.job.overhead_s"] = max(execute_s - run_s, 0.0) / per
        out["dsp.ecg_s"] = sum(
            s.duration for s in named("resolve_channels")) / per
        out["dsp.golden_s"] = sum(
            s.duration for s in named("golden_outputs")) / per

        # exec.cache
        gets = [s for s in phase if s.layer == "exec.cache"
                and s.name.endswith(".get") and outermost(s)]
        puts = [s for s in phase if s.layer == "exec.cache"
                and s.name.endswith(".put") and outermost(s)]
        out["exec.cache.get_s"] = sum(s.duration for s in gets) / per
        out["exec.cache.put_s"] = sum(s.duration for s in puts) / per
        for tier, cls in (("memory", "MemoryCache"), ("disk", "DiskCache")):
            looks = named(f"{cls}.get")
            out[f"exec.cache.{tier}.hit_frac"] = (
                sum(1 for s in looks if s.info) / len(looks)
                if looks else 0.0)

        # exec.scheduler
        out["exec.scheduler.batches"] = len(named("execute_batch")) / per

        # serve: client calls, in milliseconds per call
        for key, name in (("submit", "ServeClient.submit"),
                          ("events", "ServeClient.events"),
                          ("status", "ServeClient.job")):
            calls = named(name)
            out[f"serve.http.{key}_ms"] = (
                1000 * sum(s.duration for s in calls) / len(calls)
                if calls else 0.0)
        claims = named("InflightCoalescer.claim")
        out["serve.coalescer.followed_frac"] = (
            sum(1 for s in claims if s.info is False) / len(claims)
            if claims else 0.0)
        return out


def _inside(span, names) -> bool:
    """Whether any ancestor of ``span`` is one of ``names``."""
    parent = span.parent
    while parent is not None:
        if parent.name in names:
            return True
        parent = parent.parent
    return False
