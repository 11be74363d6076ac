"""Result checks: golden models, the reference engine, determinism.

Every check returns an error string (``None`` when the result holds),
so ``run.py`` can count each checked operation as attempted and each
error as failed.
"""

from __future__ import annotations

from dataclasses import replace

from repro.analysis.perf import run_streaming, synthetic_channels
from repro.exec import execute_batch, execute_request
from repro.exec.job import resolve_channels
from repro.kernels import golden_outputs
from repro.kernels.layout import BANK_WORDS, OUT_OFFSET


class GoldenChecker:
    """Checks run payloads against the golden model, once per digest.

    A payload is correct when the run succeeded, its own golden check
    passed and its outputs equal the golden model recomputed here from
    the request's input channels.  The first payload seen for a digest
    is kept; any later payload for the same digest must carry identical
    outputs and activity trace (the simulator is deterministic), so a
    repeated pass costs one dict comparison per run.
    """

    def __init__(self):
        self._first: dict[str, dict] = {}

    def check(self, request, digest: str, payload: dict | None,
              error: str | None = None) -> str | None:
        label = request.label
        if error is not None or payload is None:
            return f"{label}: run failed: {error}"
        if payload.get("golden_match") is not True:
            return f"{label}: the program's golden check did not pass"
        run = payload["run"]
        first = self._first.get(digest)
        if first is not None:
            if run != first:
                return f"{label}: result differs from an earlier run"
            return None
        golden = golden_outputs(request.benchmark, resolve_channels(request))
        if run["outputs"] != golden:
            return f"{label}: outputs differ from the golden model"
        self._first[digest] = run
        return None


def reference_crosscheck(requests, *, batched: bool = False) -> list[str]:
    """Rerun small-window requests on the reference ``step()`` engine.

    The fast result (one batch when ``batched``, else one run each) must
    match the reference run bit for bit: outputs and every activity
    counter.
    """
    requests = list(requests)
    if batched:
        fast = execute_batch(requests)
    else:
        fast = [(execute_request(r), None) for r in requests]
    errors = []
    for request, (payload, error) in zip(requests, fast):
        reference = execute_request(replace(request, fast_engine=False))
        if error is not None or payload is None:
            errors.append(f"{request.label}: fast run failed: {error}")
        elif payload["run"] != reference["run"]:
            errors.append(f"{request.label}: fast and reference engines "
                          "differ")
    return errors


def streaming_golden(n_samples: int) -> list[list[int]]:
    """The streaming node's EMA outputs for every core."""
    outputs = []
    for channel in synthetic_channels(n_samples):
        ema, out = 0, []
        for x in channel:
            ema += (x - ema) >> 2
            out.append(ema & 0xFFFF)
        outputs.append(out)
    return outputs


def streaming_outputs(machine, n_samples: int) -> list[list[int]]:
    return [machine.dm.dump(core * BANK_WORDS + OUT_OFFSET, n_samples)
            for core in range(machine.config.num_cores)]


def streaming_crosscheck(n_samples: int, period: int) -> str | None:
    """Fast vs reference engine on one small streaming run."""
    fast = run_streaming(n_samples, period=period)
    reference = run_streaming(n_samples, period=period, fast_engine=False)
    if (fast.trace.as_dict() != reference.trace.as_dict()
            or fast.dm.words != reference.dm.words):
        return (f"streaming n={n_samples} period={period}: fast and "
                "reference engines differ")
    return None
