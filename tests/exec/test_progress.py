"""SweepMetrics timing is monotonic-based and safe to read mid-flight;
every surface reports one origin per run."""

import itertools

from repro.exec import RunOutcome, RunRequest, SweepSpec
from repro.exec.progress import SweepMetrics, progress_line
from repro.kernels import WITH_SYNC
from repro.serve.app import Job
from repro.telemetry import SweepManifestWriter, summarize_manifest

REQUEST = RunRequest("SQRT32", WITH_SYNC, n_samples=8, num_cores=2)


def outcome(index=0, *, elapsed=0.0, worker=None, error=None, **flags):
    payload = None if error else {"elapsed": elapsed, "worker": worker}
    return RunOutcome(index, REQUEST, f"{index:064x}", payload=payload,
                      error=error, **flags)


def test_report_safe_before_finish():
    metrics = SweepMetrics(total=4)
    metrics.note(outcome(0, cached=True))
    metrics.note(outcome(1, elapsed=0.5, worker=7))
    # mid-flight: wall clock is live, nothing raises, rates are sane
    assert metrics.wall_seconds >= 0.0
    assert metrics.runs_per_second >= 0.0
    assert "2/4 runs" in metrics.report()
    assert metrics.as_dict()["hit_rate"] == 0.5


def test_finish_freezes_wall_clock():
    metrics = SweepMetrics(total=1)
    metrics.note(outcome(0, elapsed=0.1, worker=1))
    metrics.finish()
    frozen = metrics.wall_seconds
    metrics.finish()  # idempotent
    assert metrics.wall_seconds == frozen


def test_wall_clock_advances_mid_flight():
    import time

    metrics = SweepMetrics(total=2)
    first = metrics.wall_seconds
    time.sleep(0.01)
    assert metrics.wall_seconds > first


def test_progress_line_includes_hit_rate():
    hit = outcome(0, cached=True)
    line = progress_line(hit, 1, 2, hit_rate=1.0)
    assert "cache 100%" in line
    assert "cache" not in progress_line(hit, 1, 2)


def test_dedup_and_coalesced_are_counted_inside_executed():
    metrics = SweepMetrics(total=4)
    metrics.note(outcome(0, elapsed=0.4, worker=1))
    metrics.note(outcome(1, elapsed=0.4, worker=1, deduped=True))
    metrics.note(outcome(2, elapsed=0.4, worker=1, coalesced=True))
    metrics.note(outcome(3, cached=True))
    assert metrics.executed == 3          # dedup slots still count here
    assert metrics.dedup_hits == 1
    assert metrics.coalesced_hits == 1
    assert metrics.cache_hits == 1
    # slots that rode another run carry no execution time of their own
    assert [r.elapsed for r in metrics.records] == [0.4, 0.0, 0.0, 0.0]
    assert metrics.worker_utilization().keys() == {1}
    doc = metrics.as_dict()
    assert doc["dedup_hits"] == 1 and doc["coalesced_hits"] == 1
    assert "1 deduped in-sweep, 1 joined in-flight" in metrics.report()


def test_report_omits_coalescing_line_when_nothing_coalesced():
    metrics = SweepMetrics(total=1)
    metrics.note(outcome(0, elapsed=0.1, worker=1))
    assert "coalescing" not in metrics.report()


#: the origin rule, highest precedence first, and each source's label
PRECEDENCE = (("error", "error"), ("cached", "cache"),
              ("coalesced", "coalesced"), ("deduped", "deduped"))
LABELS = {"error": "FAIL", "cache": "hit", "coalesced": "join",
          "deduped": "dup", "executed": "run"}


def test_progress_line_origin_precedence(tmp_path):
    """Every combination of the four origin flags: the progress line,
    the runs.jsonl row, the job-resource row and `repro stats`'s
    outcome column all name the same source."""
    outcomes, expected = [], []
    for index, bits in enumerate(itertools.product((False, True),
                                                   repeat=4)):
        flags = dict(zip((flag for flag, _ in PRECEDENCE), bits))
        error = "boom" if flags.pop("error") else None
        outcomes.append(outcome(index, elapsed=0.1, error=error, **flags))
        set_flags = {**flags, "error": error is not None}
        expected.append(next((source for flag, source in PRECEDENCE
                              if set_flags[flag]), "executed"))
    assert set(expected) == set(LABELS)

    writer = SweepManifestWriter(tmp_path / "out")
    rows = [writer.note_outcome(o) for o in outcomes]
    writer.finalize()
    job = Job("0" * 12, SweepSpec("origins", (REQUEST,) * len(outcomes)),
              tmp_path / "job")
    job.outcomes = outcomes
    resource_rows = job.to_json(runs=True)["runs"]
    stats_labels = {}
    for line in summarize_manifest(tmp_path / "out").splitlines():
        cells = line.split()
        if cells and cells[0].isdigit():
            stats_labels[int(cells[0])] = cells[1]

    for o, source, row, resource in zip(outcomes, expected, rows,
                                        resource_rows):
        assert o.source == source
        assert row["source"] == resource["source"] == source
        label = LABELS[source]
        assert progress_line(o, 1, 1).split()[2] == label
        assert stats_labels[o.index] == label
