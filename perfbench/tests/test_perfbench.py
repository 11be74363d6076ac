"""Self-check of the benchmark at minimal size.

Run from the repository root::

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from checks import GoldenChecker  # noqa: E402
from repro.exec import RunRequest, execute_request, request_digest  # noqa
from repro.kernels import WITH_SYNC  # noqa: E402
from workloads import PassResult, SeedSweep  # noqa: E402

MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in MANIFEST["workloads"]]

#: layers each workload runs at minimal size (their calls must be > 0)
RUNS = {
    "ablation-sweep": ("isa", "cpu.blocks", "platform.engine", "exec.job",
                       "dsp", "exec.cache", "exec.scheduler", "telemetry"),
    "seed-sweep": ("compiler", "isa", "cpu.blocks", "platform.engine",
                   "cpu.vec", "exec.job", "dsp", "exec.cache",
                   "exec.scheduler", "telemetry"),
    "serve-mixed": ("compiler", "isa", "cpu.blocks", "platform.engine",
                    "exec.job", "dsp", "exec.cache", "exec.scheduler",
                    "telemetry", "obs", "serve"),
    "streaming-node": ("isa", "cpu.blocks", "platform.engine"),
}

#: metrics each workload exists to move; at minimal size they must
#: already be > 0, so a counter the benchmark stops finding shows here
MOVES = {
    "ablation-sweep": (
        "isa.busy_s", "cpu.blocks.compiled", "cpu.blocks.compile_s",
        "platform.engine.busy_s", "platform.engine.lockstep_share",
        "platform.engine.closure_share", "platform.engine.divergent_share",
        "platform.engine.reference_share", "platform.engine.fused_coverage",
        "platform.engine.deopts_per_kcycle", "platform.engine.sync_rmws",
        "exec.job.digest_s", "exec.job.digests_per_run",
        "exec.job.execute_s", "exec.job.overhead_s", "dsp.ecg_s",
        "dsp.golden_s", "exec.cache.put_s", "exec.scheduler.self_s",
        "telemetry.manifest_s"),
    "seed-sweep": (
        "cpu.vec.busy_s", "cpu.vec.compile_s", "cpu.vec.batched_frac",
        "cpu.vec.vector_share", "cpu.vec.early_peel_frac",
        "exec.scheduler.self_s", "exec.scheduler.batches"),
    "serve-mixed": (
        "exec.job.digest_s", "exec.job.digests_per_run", "exec.cache.get_s",
        "exec.cache.put_s", "exec.cache.memory.hit_frac",
        "telemetry.manifest_s", "obs.trace_write_s", "serve.http.submit_ms",
        "serve.http.events_ms", "serve.http.status_ms", "serve.exec_wait_ms",
        "serve.events_tail_ms", "serve.coalescer.followed_frac",
        "serve.unattributed_frac"),
    "streaming-node": ("platform.engine.busy_s",
                       "platform.engine.sleep_share"),
}


def run_small(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "7",
         "--seconds", "0.1", "--trace", str(trace), "--small"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=False)
    assert done.returncode == 0, done.stderr[-3000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload):
    result = run_small(workload, 0)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in MANIFEST["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, entry in result["metrics"].items():
        assert entry["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_per_layer_metric(workload):
    result = run_small(workload, 1)
    assert result["correct"] and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in MANIFEST["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for layer in RUNS[workload]:
        assert result["metrics"][f"{layer}.calls"]["value"] > 0, layer
    for name in MOVES[workload]:
        assert result["metrics"][name]["value"] > 0, name


def test_corrupted_result_counts_as_failure(tmp_path):
    request = RunRequest("SQRT32", WITH_SYNC, n_samples=8, seed=11)
    digest = request_digest(request)
    payload = execute_request(request)
    assert GoldenChecker().check(request, digest, payload) is None

    corrupt = json.loads(json.dumps(payload))
    corrupt["run"]["outputs"][0][0] += 1
    rows = [(request, digest, corrupt, None)]
    workload = SeedSweep(1, tmp_path)
    try:
        attempted, errors = workload.check(
            [PassResult(elapsed=1.0, requests=1, results=rows)])
    finally:
        workload.close()
    assert attempted == 1 and len(errors) == 1
    assert "golden" in errors[0]

    # a repeat that disagrees with an earlier, correct result
    checker = GoldenChecker()
    assert checker.check(request, digest, payload) is None
    assert "differs" in checker.check(request, digest, corrupt)
    assert checker.check(replace(request), digest, None, "boom")
