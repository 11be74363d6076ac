"""The ``serve-mixed`` workload: two closed-loop clients against an
in-process ``repro serve``.

Each client follows ``repro client``'s path — POST the sweep, stream
its events to ``end``, GET the job — and sends its next submission only
after the previous one returned.  A pass is one seeded schedule of
:data:`PASS_WARM` warm resubmissions of earlier sweeps, :data:`PASS_COLD`
fresh sweeps and one coalesced pair (both clients submit the same fresh
sweep together).
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field, replace

from repro.exec import RunRequest, SweepSpec, execute_request
from repro.kernels import WITH_SYNC, WITHOUT_SYNC
from repro.serve import ServeClient, SweepService, default_service_cache, \
    start_server

from checks import GoldenChecker
from workloads import PassResult, Workload, derive_seeds

CLIENTS = 2
PASS_WARM = 20
PASS_COLD = 2
#: sweeps submitted during set-up, the pool warm resubmissions draw from
WARM_SWEEPS = 4
SAMPLES = 16
#: a job's server-side latency may exceed the client's by at most this
#: much (the two are read from different clocks)
CLOCK_SLACK_S = 0.001


def sweep_spec(name: str, seed: int, samples: int = SAMPLES) -> SweepSpec:
    """One small sweep: three runs on one seeded ECG recording."""
    return SweepSpec(name, (
        RunRequest("SQRT32", WITH_SYNC, n_samples=samples, seed=seed),
        RunRequest("SQRT32", WITHOUT_SYNC, n_samples=samples, seed=seed),
        RunRequest("MRPDLN", WITH_SYNC, n_samples=samples, seed=seed),
    ))


@dataclass
class Submission:
    """One client submission, as the client saw it."""

    kind: str                   #: scheduled kind: warm / cold / pair
    spec: SweepSpec
    latency: float = 0.0        #: POST to job fetched, host seconds
    job: dict = field(default_factory=dict)
    rows: list = field(default_factory=list)
    end_seen: float = 0.0       #: epoch seconds the client saw ``end``
    error: str | None = None

    @property
    def sources(self) -> set:
        return {row["source"] for row in self.job.get("runs", [])}


@dataclass
class _Op:
    kind: str
    spec: SweepSpec
    barrier: threading.Barrier | None = None


def submit(client: ServeClient, op: _Op) -> Submission:
    """POST, stream events to ``end``, GET the job."""
    sub = Submission(op.kind, op.spec)
    start = time.perf_counter()
    try:
        job = client.submit(op.spec)
        for event in client.events(job["id"]):
            if event.get("event") == "end":
                break
            sub.rows.append(event)
        sub.end_seen = time.time()
        sub.job = client.job(job["id"])
    except Exception as exc:      # noqa: BLE001 — counted as a failure
        sub.error = f"{type(exc).__name__}: {exc}"
    sub.latency = time.perf_counter() - start
    return sub


class ServeMixed(Workload):
    name = "serve-mixed"
    # about one warm submission in ten waits behind another client's
    # cold simulation (the service runs one at a time); p90 sat on the
    # edge of that mode (quartile spread 29% over ten seeds on a 2-core
    # VM), p95 lies inside it
    tail_percentile = 95.0
    runs_per_request = 3

    def setup(self) -> None:
        samples = 8 if self.small else SAMPLES
        self.samples = samples
        self.service = SweepService(
            cache=default_service_cache(self.workdir / "cache"),
            state_dir=self.workdir / "state")
        self.server = start_server(self.service)
        self.clients = [ServeClient(self.server.base_url, timeout=120.0)
                        for _ in range(CLIENTS)]
        count = 1 if self.small else WARM_SWEEPS
        self.warm = [sweep_spec(f"warm-{i}", seed, samples)
                     for i, seed in enumerate(derive_seeds(self.rng, count))]
        self.setup_subs = [submit(self.clients[0], _Op("cold", spec))
                           for spec in self.warm]
        self.submitted = len(self.setup_subs)

    # -- the closed loop ---------------------------------------------------

    def schedule(self, index: int) -> list[_Op]:
        """Pass ``index``'s seeded schedule."""
        rng = random.Random(f"{self.seed}/{index}")
        warm, cold = (2, 1) if self.small else (PASS_WARM, PASS_COLD)
        fresh = derive_seeds(rng, cold + 1)
        ops = [_Op("warm", self.warm[rng.randrange(len(self.warm))])
               for _ in range(warm)]
        ops += [_Op("cold", sweep_spec(f"cold-{index}-{i}", seed,
                                       self.samples))
                for i, seed in enumerate(fresh[:cold])]
        ops.append(_Op("pair", sweep_spec(f"pair-{index}", fresh[-1],
                                          self.samples),
                       threading.Barrier(CLIENTS, timeout=120.0)))
        rng.shuffle(ops)
        return ops

    def run_pass(self, index: int) -> PassResult:
        ops = self.schedule(index)
        lock = threading.Lock()
        pending: list = []          # a pair one client drew: (owner, op)
        subs: list[Submission] = []

        def next_op(me: int):
            with lock:
                if pending and pending[0][0] != me:
                    return pending.pop()[1]
                if not ops:
                    return None
                op = ops.pop(0)
                if op.barrier is not None:
                    pending.append((me, op))
                return op

        def client_loop(me: int) -> None:
            client = self.clients[me]
            while (op := next_op(me)) is not None:
                if op.barrier is not None:
                    op.barrier.wait()
                sub = submit(client, op)
                with lock:
                    subs.append(sub)

        threads = [threading.Thread(target=client_loop, args=(me,),
                                    name=f"perfbench-client-{me}")
                   for me in range(CLIENTS)]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - start
        self.submitted += len(subs)
        # classified by schedule: a warm resubmission that rode another
        # client's identical in-flight warm job still simulated nothing
        cold = [s.latency for s in subs if s.kind != "warm"]
        warm = [s.latency for s in subs if s.kind == "warm"]
        cycles = sum(row["telemetry"]["cycles"]
                     for s in subs for row in s.rows
                     if not (row["cached"] or row["coalesced"]
                             or row["deduped"]))
        return PassResult(elapsed=elapsed, requests=len(subs),
                          latencies=cold, tail=warm, cycles=cycles,
                          results=subs)

    # -- checks ------------------------------------------------------------

    def check(self, passes):
        checker = GoldenChecker()
        errors: list[str] = []
        subs = self.setup_subs + [s for p in passes for s in p.results]
        payloads: dict[str, dict | None] = {}
        client = self.clients[0]
        for sub in subs:
            errors.extend(self._check_submission(sub, checker, payloads,
                                                 client))
        errors.extend(self._check_prometheus(client))
        self.total_cycles = passes[0].cycles if passes else 0
        return len(subs) + 1, errors

    def _check_submission(self, sub, checker, payloads, client):
        name = sub.spec.name
        if sub.error is not None:
            return [f"{name}: {sub.error}"]
        job = sub.job
        if job.get("status") != "done":
            return [f"{name}: job ended {job.get('status')}: "
                    f"{job.get('error')}"]
        if sub.kind == "warm" and "executed" in sub.sources:
            return [f"{name}: warm resubmission simulated"]
        server = job["finished"] - job["submitted"]
        if server > sub.latency + CLOCK_SLACK_S:
            return [f"{name}: server latency {server:.4f}s exceeds the "
                    f"client's {sub.latency:.4f}s"]
        errors = []
        for row in job["runs"]:
            request = sub.spec.requests[row["index"]]
            digest = row["digest"]
            if digest not in payloads:
                payloads[digest] = client.run_payload(digest)
            problem = checker.check(request, digest, payloads[digest],
                                    row["error"])
            if problem is None and row["golden_match"] is not True:
                problem = f"{request.label}: job row lacks a golden match"
            if problem:
                errors.append(f"{name}: {problem}")
        return errors

    def _check_prometheus(self, client) -> list[str]:
        """The latency histogram counts every submission exactly once."""
        deadline = time.monotonic() + 5.0
        while True:
            count = None
            for line in client.metrics_prometheus().splitlines():
                if line.startswith(
                        "repro_sweep_request_latency_seconds_count"):
                    count = float(line.split()[-1])
            if count == self.submitted or time.monotonic() > deadline:
                break
            time.sleep(0.05)        # the histogram is observed just
            # after the job turns terminal
        if count != self.submitted:
            return [f"prometheus counts {count} request latencies for "
                    f"{self.submitted} submissions"]
        return []

    def crosscheck(self):
        """The service's results for one fresh small-window sweep, bit
        for bit against the reference engine."""
        client = self.clients[0]
        spec = sweep_spec("crosscheck", derive_seeds(self.rng, 1)[0], 8)
        sub = submit(client, _Op("cold", spec))
        self.submitted += 1
        if sub.error is not None:
            return 1, [f"crosscheck: {sub.error}"]
        errors = []
        for row in sub.job["runs"]:
            request = spec.requests[row["index"]]
            payload = client.run_payload(row["digest"])
            reference = execute_request(replace(request, fast_engine=False))
            if payload is None or payload["run"] != reference["run"]:
                errors.append(f"{request.label}: served result differs "
                              "from the reference engine")
        return len(spec.requests), errors

    # -- per-layer extras ---------------------------------------------------

    def layer_extras(self, passes) -> dict:
        """Span-tree metrics of the given passes' jobs."""
        client = self.clients[0]
        waits, tails, unattributed = [], [], []
        for sub in (s for p in passes for s in p.results):
            if sub.error is not None or not sub.job:
                continue
            tails.append(sub.end_seen - sub.job["finished"])
            frac, wait = span_tree_stats(client.trace(sub.job["id"]))
            unattributed.append(frac)
            if wait is not None:
                waits.append(wait)

        def mean(values):
            return sum(values) / len(values) if values else 0.0

        return {
            "serve.exec_wait_ms": 1000 * mean(waits),
            "serve.events_tail_ms": 1000 * mean(tails),
            "serve.unattributed_frac": mean(unattributed),
        }

    def describe(self) -> dict:
        return {"samples": self.samples, "clients": CLIENTS,
                "pass": {"warm": PASS_WARM, "cold": PASS_COLD, "pairs": 1},
                "warm_sweeps": [s.requests[0].seed for s in self.warm]}

    def close(self) -> None:
        self.server.close()
        self.service.close()
        super().close()


def span_tree_stats(tree: dict) -> tuple[float, float | None]:
    """(unattributed share of the job span, exec-lock wait in seconds).

    The job span's direct children are its stage spans; the share of
    the job's wall time none of them covers is unattributed.  The wait
    runs from the end of the coalesce claim to the start of the cache
    lookup — absent when the job owned nothing to execute.  A tree
    without a job span or a coalesce claim raises ``ValueError``.
    """
    spans = [e for e in tree["traceEvents"] if e["ph"] == "X"]
    job = next((s for s in spans if s["cat"] == "job"), None)
    claim = next((s for s in spans if s["cat"] == "coalesce"
                  and s["name"] == "coalesce claim"), None)
    if job is None or claim is None:
        raise ValueError("job trace lacks its job or coalesce-claim span")
    job_id = job["args"]["span_id"]
    lo, hi = job["ts"], job["ts"] + job["dur"]
    children = sorted(
        (max(s["ts"], lo), min(s["ts"] + s["dur"], hi)) for s in spans
        if s["args"].get("parent_span_id") == job_id)
    covered, reach = 0.0, lo
    for begin, end in children:
        if end > reach:
            covered += end - max(begin, reach)
            reach = end
    frac = 1.0 - covered / job["dur"] if job["dur"] > 0 else 0.0
    lookup = next((s for s in spans if s["cat"] == "cache"), None)
    wait = None
    if lookup is not None:
        wait = max(lookup["ts"] - (claim["ts"] + claim["dur"]), 0.0) / 1e6
    return frac, wait
