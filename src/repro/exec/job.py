"""Job model for the sweep executor.

A :class:`RunRequest` is a *pure, pickle-able description* of one
simulation: which benchmark image to build, which platform to build, and
which inputs to feed it.  Executing a request anywhere — this process, a
pool worker, a different machine — produces the same
:class:`~repro.kernels.suite.BenchmarkRun`, which is what makes results
content-addressable: :func:`request_digest` hashes everything the run
depends on (the *built* program image, the full platform configuration,
the materialized input channels and the package version), so a cache hit
is a proof that recomputation would be identical.

:class:`SweepSpec` is an ordered bag of requests — the unit the
scheduler (:mod:`repro.exec.scheduler`) fans out across workers.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import signal
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache

from .. import __version__
from ..compiler import compile_source
from ..dsp import generate_ecg
from ..dsp.ecg import EcgConfig
from ..isa.program import Program
from ..kernels import BENCHMARKS, Design, golden_outputs, run_benchmark
from ..kernels.suite import build_program, collect_benchmark, \
    prepare_benchmark
from ..platform import PlatformConfig

#: cache-entry / payload schema; bump on incompatible layout changes
#: (2: added the ``engine`` fast-path engagement counters)
#: (3: ``engine`` gained the batched-vector counters and batched
#: payloads carry ``batch_size``)
#: (4: ``engine`` gained the memory-fusion counters — ``mem_fused_blocks``
#: / ``mem_fused_ops`` — and the block-termination census ``term_*``)
#: (5: ``engine`` gained the predication counters — ``pred_blocks`` /
#: ``pred_cycles`` / ``pred_aborts`` — and batched payloads carry
#: ``batch_refused``: the entry-guard reason when a run silently fell
#: back to scalar dispatch inside its batch)
#: (6: ``engine`` drops the memory-fusion counters, ``term_guard`` and
#: ``pred_cycles``: superblocks no longer fuse LD/STs or predicate)
SCHEMA = 6

DEFAULT_SAMPLES = 64
DEFAULT_SEED = 2013


class RunTimeout(Exception):
    """A run exceeded its per-run wall-clock budget."""


@dataclass(frozen=True)
class RunRequest:
    """Everything one simulation run is a function of.

    :ivar benchmark: bundled benchmark name (``BENCHMARKS`` key).
    :ivar design: hardware/software design pair; decides the program
        flavour (sync points or not) and the default platform policy.
    :ivar config: full platform override for ablations (core count,
        banking, broadcast, policy).  ``None`` means
        ``design.platform_config(num_cores)``.
    :ivar n_samples: per-channel evaluation window.
    :ivar seed: ECG generator seed (shorthand for ``ecg``).
    :ivar ecg: full ECG generator parameters; ``None`` means
        ``EcgConfig(seed=seed)``.  The cache key hashes the *generated
        samples*, so any parameter change — including a changed
        ``EcgConfig`` field default — changes the key.
    :ivar channels: explicit input override (one tuple per core); when
        set, the ECG parameters are ignored.
    :ivar sync_mode: minic sync-insertion override (``'auto'``/``'all'``/
        ``'none'``); ``None`` uses the design default.
    :ivar sync_min_statements: minic checkpoint-density threshold.
    :ivar fast_engine: engine selection (bit-exact either way).
    :ivar max_cycles: simulation safety bound.
    :ivar verify: check outputs against the golden model in the worker.
    """

    benchmark: str
    design: Design
    config: PlatformConfig | None = None
    n_samples: int = DEFAULT_SAMPLES
    num_cores: int = 8
    seed: int = DEFAULT_SEED
    ecg: EcgConfig | None = None
    channels: tuple[tuple[int, ...], ...] | None = None
    sync_mode: str | None = None
    sync_min_statements: int = 0
    fast_engine: bool = True
    max_cycles: int = 50_000_000
    verify: bool = True

    @property
    def label(self) -> str:
        """Short human-readable name for progress lines."""
        cores = self.platform_config().num_cores
        extras = []
        if self.sync_mode is not None:
            extras.append(f"mode={self.sync_mode}")
        if self.sync_min_statements:
            extras.append(f"min={self.sync_min_statements}")
        if self.config is not None:
            if self.config.dm_interleaved:
                extras.append("interleaved")
            if not (self.config.im_broadcast and self.config.dm_broadcast):
                extras.append("no-bcast")
        suffix = f" [{','.join(extras)}]" if extras else ""
        return (f"{self.benchmark} {self.design.name} "
                f"c{cores} n{self.n_samples}{suffix}")

    def platform_config(self) -> PlatformConfig:
        return self.config or self.design.platform_config(self.num_cores)

    def ecg_config(self) -> EcgConfig:
        return self.ecg or EcgConfig(seed=self.seed)

    def to_key(self) -> tuple:
        """Stable identity tuple (hashable; independent of repr/pickle)."""
        return ("RunRequest", self.benchmark, self.design.to_key(),
                self.platform_config().to_key(), self.n_samples,
                self.ecg_config() if self.channels is None else None,
                self.channels, self.sync_mode, self.sync_min_statements,
                self.fast_engine, self.max_cycles, self.verify)

    def to_wire(self) -> dict:
        """Versioned JSON wire document (see ``docs/wire_schema.md``)."""
        from .wire import request_to_wire

        return request_to_wire(self)

    @classmethod
    def from_wire(cls, doc: dict) -> "RunRequest":
        """Inverse of :meth:`to_wire`; raises
        :class:`~repro.exec.wire.WireError` on malformed documents."""
        from .wire import request_from_wire

        return request_from_wire(doc)


@dataclass(frozen=True)
class SweepSpec:
    """An ordered set of runs executed (and reported) as one sweep."""

    name: str
    requests: tuple[RunRequest, ...]

    def __iter__(self):
        return iter(self.requests)

    def __len__(self) -> int:
        return len(self.requests)

    def to_wire(self, *, trace=None) -> dict:
        """Versioned JSON wire document (see ``docs/wire_schema.md``).

        :param trace: optional trace context to embed (see
            :func:`~repro.exec.wire.spec_to_wire`).
        """
        from .wire import spec_to_wire

        return spec_to_wire(self, trace=trace)

    @classmethod
    def from_wire(cls, doc: dict) -> "SweepSpec":
        """Inverse of :meth:`to_wire`; raises
        :class:`~repro.exec.wire.WireError` on malformed documents."""
        from .wire import spec_from_wire

        return spec_from_wire(doc)

    @classmethod
    def grid(cls, name: str, benchmarks, designs, *,
             samples=(DEFAULT_SAMPLES,), seed: int = DEFAULT_SEED,
             **common) -> "SweepSpec":
        """The classic evaluation product: samples x benchmark x design."""
        requests = tuple(
            RunRequest(benchmark=bench, design=design, n_samples=n,
                       seed=seed, **common)
            for n in samples for bench in benchmarks for design in designs)
        return cls(name, requests)


# ---------------------------------------------------------------------------
# Request resolution (runs in the worker; memoized per process, so pool
# workers reuse built images and generated inputs across tasks)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=128)
def _build_minic(benchmark: str, sync_mode: str,
                 sync_min_statements: int) -> tuple[Program, int]:
    bench = BENCHMARKS[benchmark]
    result = compile_source(bench.source, sync_mode=sync_mode,
                            sync_min_statements=sync_min_statements,
                            synclint="off")
    return result.program, result.sync_points


def resolve_sync_mode(request: RunRequest) -> str | None:
    """The sync-insertion mode a request's image is compiled with: its
    ``sync_mode``, else the design's default; None for assembly kernels,
    which take no compile overrides."""
    if BENCHMARKS[request.benchmark].kind == "minic":
        if request.sync_mode is not None:
            return request.sync_mode
        return "auto" if request.design.sync_enabled else "none"
    if request.sync_mode is not None or request.sync_min_statements:
        raise ValueError(
            f"{request.benchmark} is assembly: sync_mode / "
            "sync_min_statements overrides only apply to minic kernels")
    return None


def resolve_program(request: RunRequest) -> tuple[Program, int | None]:
    """Build (or fetch the per-process cached) image for a request.

    :returns: ``(program, sync_points)``; ``sync_points`` is ``None``
        for assembly kernels, where the compiler never counts them.
    """
    mode = resolve_sync_mode(request)
    if mode is not None:
        return _build_minic(request.benchmark, mode,
                            request.sync_min_statements)
    return build_program(request.benchmark,
                         request.design.sync_enabled), None


_channel_memo: dict[tuple[int, EcgConfig], list[list[int]]] = {}


def resolve_channels(request: RunRequest) -> list[list[int]]:
    """Materialize the per-core input channels for a request.

    Generated inputs always come from an 8-lead recording sliced to the
    platform's core count, so an ``n``-core run sees the same leads as
    the first ``n`` cores of the 8-core run (the convention every
    ablation in ``benchmarks/`` relies on).
    """
    cores = request.platform_config().num_cores
    if request.channels is not None:
        if len(request.channels) < cores:
            raise ValueError(
                f"request supplies {len(request.channels)} channels for "
                f"{cores} cores")
        return [list(channel) for channel in request.channels[:cores]]
    key = (request.n_samples, request.ecg_config())
    if key not in _channel_memo:
        if len(_channel_memo) >= 32:
            _channel_memo.pop(next(iter(_channel_memo)))
        recording = generate_ecg(n_channels=8, n_samples=request.n_samples,
                                 config=key[1])
        _channel_memo[key] = [recording.channel(c) for c in range(8)]
    return [list(channel) for channel in _channel_memo[key][:cores]]


# ---------------------------------------------------------------------------
# Content addressing
# ---------------------------------------------------------------------------

def program_digest(program: Program) -> str:
    """Content hash of a built image: code, data, symbols, entry.

    Thin wrapper over :meth:`Program.digest` (which owns the hash and
    caches it per image) — the same key the fused-superblock cache
    (:mod:`repro.cpu.blocks`) uses, so one digest computation serves
    both the result cache and the block cache.
    """
    return program.digest()


def request_digest(request: RunRequest, *, version: str | None = None) -> str:
    """Content address of one run.

    Hashes the *resolved* inputs — the built program image, the
    materialized channel samples and the sync-insertion mode — plus the
    platform configuration and the package version, so a digest match
    means "the bits this run consumes are identical": a minic request
    naming its design's default mode shares the digest of one naming
    none.  Compiler changes, kernel-source edits, ECG
    parameter changes and package upgrades all change the digest without
    any of them having to be listed here explicitly.
    """
    program, _ = resolve_program(request)
    channels = resolve_channels(request)
    doc = {
        "schema": SCHEMA,
        "version": version if version is not None else __version__,
        "benchmark": request.benchmark,
        "design": request.design.to_json(),
        "config": request.platform_config().to_json(),
        "program": program_digest(program),
        "channels": hashlib.sha256(
            json.dumps(channels, separators=(",", ":")).encode()
        ).hexdigest(),
        "n_samples": request.n_samples,
        "sync_mode": resolve_sync_mode(request),
        "sync_min_statements": request.sync_min_statements,
        "fast_engine": request.fast_engine,
        "max_cycles": request.max_cycles,
        "verify": request.verify,
    }
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------

@contextmanager
def _deadline(seconds: float | None):
    """Raise :class:`RunTimeout` if the block runs longer than ``seconds``.

    Implemented with ``SIGALRM`` so it interrupts the simulation loop
    itself; only usable in a main thread on POSIX, and silently skipped
    elsewhere (the ``max_cycles`` bound still applies).
    """
    usable = (seconds is not None and seconds > 0
              and hasattr(signal, "setitimer")
              and threading.current_thread() is threading.main_thread())
    if not usable:
        yield
        return

    def on_alarm(signum, frame):
        raise RunTimeout(f"run exceeded {seconds:.3g}s wall-clock budget")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def execute_request(request: RunRequest, *,
                    timeout: float | None = None) -> dict:
    """Run one request to completion; returns the cacheable payload.

    Pure with respect to the request: the payload's ``run`` /
    ``sync_points`` / ``golden_match`` fields depend only on the request
    contents (``elapsed`` and ``worker`` are bookkeeping and excluded
    from differential comparison).
    """
    start = time.perf_counter()
    program, sync_points = resolve_program(request)
    channels = resolve_channels(request)
    with _deadline(timeout):
        run = run_benchmark(request.benchmark, request.design, channels,
                            max_cycles=request.max_cycles,
                            fast_engine=request.fast_engine,
                            config=request.platform_config(),
                            program=program)
        golden_match = None
        if request.verify:
            golden_match = (run.outputs
                            == golden_outputs(request.benchmark, channels))
    engine = None
    if run.machine is not None and request.fast_engine:
        engine = run.machine.engine_stats.as_dict()
    return {
        "schema": SCHEMA,
        "version": __version__,
        "run": run.to_json(),
        "engine": engine,
        "sync_points": sync_points,
        "golden_match": golden_match,
        "elapsed": round(time.perf_counter() - start, 6),
        "worker": os.getpid(),
    }


# ---------------------------------------------------------------------------
# Batched execution (array-of-machines, repro.cpu.vec)
# ---------------------------------------------------------------------------

def batch_key(request: RunRequest):
    """Coalescing key: requests with equal keys may run as one batch.

    Two requests can share an array-of-machines batch when they run the
    *same built image* on the *same platform* with the same cycle bound
    — their inputs (channels, ``n_samples``, seed) are free to differ,
    that is the batch axis.  Returns ``None`` when the request cannot be
    batched at all (reference engine requested), in which case the
    scheduler dispatches it individually.
    """
    if not request.fast_engine:
        return None
    try:
        program, _ = resolve_program(request)
    except Exception:
        return None             # the individual run will report the error
    return (program_digest(program), request.platform_config().to_key(),
            request.max_cycles)


def _isolated(request: RunRequest,
              timeout: float | None) -> tuple[dict | None, str | None]:
    try:
        return execute_request(request, timeout=timeout), None
    except Exception as exc:
        return None, f"{type(exc).__name__}: {exc}"


def execute_batch(requests, *, timeout: float | None = None,
                  trace_id: str | None = None
                  ) -> list[tuple[dict | None, str | None]]:
    """Run a family of same-:func:`batch_key` requests as one batch.

    The machines are prepared together, advanced in vectorized lockstep
    by :func:`repro.cpu.vec.run_batch`, then finished and verified
    individually — each with its own error isolation, so one bad run
    (cycle limit, timeout) never sinks its batch-mates.  Results are
    bit-identical to :func:`execute_request` per request; the payloads
    additionally carry ``batch_size`` and split the shared vector-phase
    wall time evenly across ``elapsed`` fields.

    A run the batch entry guard refuses still completes — it just falls
    back to scalar dispatch inside the batch.  That fallback is never
    silent: the payload carries the guard's reason as ``batch_refused``
    and a ``batch.refused`` record (tagged with ``trace_id``) goes to
    the structured log, so the metrics plane can count
    ``batch_refused{reason=...}``.

    The vector phase runs under a pooled deadline of ``timeout x N``; if
    it raises *anything*, the partially-advanced machines are discarded
    and every request re-executes individually from scratch — the batch
    layer can fail, the results cannot (a ``batch.fallback`` record is
    logged).

    :returns: one ``(payload, error)`` pair per request, in order.
    """
    # NumPy, which the vector engine needs, stays off the import path
    from ..cpu import vec
    from ..obs.log import emit

    batch = list(requests)
    if len(batch) == 1:
        return [_isolated(batch[0], timeout)]
    start = time.perf_counter()
    limit = min(r.max_cycles for r in batch)
    try:
        prepared = []
        with _deadline(timeout * len(batch) if timeout else None):
            for request in batch:
                program, sync_points = resolve_program(request)
                channels = resolve_channels(request)
                machine, n_samples = prepare_benchmark(
                    request.benchmark, request.design, channels,
                    fast_engine=request.fast_engine,
                    config=request.platform_config(), program=program)
                # same pure check run_batch applies; recorded here so
                # the refusal reason can ride each refused payload
                refused = vec.batch_entry_guard(machine, limit)
                prepared.append((request, channels, machine, n_samples,
                                 sync_points, refused))
            vec.run_batch([entry[2] for entry in prepared], limit=limit)
    except Exception as exc:
        # mid-batch state is not trustworthy after an arbitrary failure
        # (e.g. a timeout signal between two vector ops) — rerun scalar.
        emit("batch.fallback", level=logging.WARNING, trace_id=trace_id,
             runs=len(batch), error=f"{type(exc).__name__}: {exc}")
        return [_isolated(request, timeout) for request in batch]
    for request, _, _, _, _, refused in prepared:
        if refused is not None:
            emit("batch.refused", level=logging.WARNING, trace_id=trace_id,
                 label=request.label, reason=refused)
    share = (time.perf_counter() - start) / len(batch)
    results: list[tuple[dict | None, str | None]] = []
    for request, channels, machine, n_samples, sync_points, refused \
            in prepared:
        own = time.perf_counter()
        try:
            with _deadline(timeout):
                machine.run(max_cycles=request.max_cycles)
                run = collect_benchmark(machine, request.benchmark,
                                        request.design, n_samples)
                golden_match = None
                if request.verify:
                    golden_match = (
                        run.outputs
                        == golden_outputs(request.benchmark, channels))
        except Exception as exc:
            results.append((None, f"{type(exc).__name__}: {exc}"))
            continue
        payload = {
            "schema": SCHEMA,
            "version": __version__,
            "run": run.to_json(),
            "engine": machine.engine_stats.as_dict(),
            "sync_points": sync_points,
            "golden_match": golden_match,
            "batch_size": len(batch),
            "elapsed": round(share + time.perf_counter() - own, 6),
            "worker": os.getpid(),
        }
        if refused is not None:
            payload["batch_refused"] = refused
        results.append((payload, None))
    return results
