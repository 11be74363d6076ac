"""ExecProfile: phase timing, top-N tables, manifest round trip."""

from repro.obs import ExecProfile
from repro.obs.profile import profile_from_dict


def payload(elapsed, cycles=1000, fused_cycles=0, fused_blocks=0):
    return {"elapsed": elapsed,
            "run": {"trace": {"cycles": cycles}},
            "engine": {"fused_blocks": fused_blocks,
                       "fused_cycles": fused_cycles}}


class TestPhases:
    def test_phase_records_wall_and_cpu(self):
        profile = ExecProfile()
        with profile.phase("cache"):
            sum(range(1000))
        (timing,) = profile.phases
        assert timing.name == "cache"
        assert timing.wall_seconds >= 0 and timing.cpu_seconds >= 0

    def test_phase_closes_on_exception(self):
        profile = ExecProfile()
        try:
            with profile.phase("execute"):
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert [t.name for t in profile.phases] == ["execute"]


class TestRunTables:
    def test_top_runs_sorted_by_elapsed(self):
        profile = ExecProfile(top=2)
        profile.note_run("slow", payload(3.0))
        profile.note_run("fast", payload(0.1))
        profile.note_run("mid", payload(1.0))
        assert [row["label"] for row in profile.top_runs()] == \
            ["slow", "mid"]

    def test_top_fused_skips_unfused_and_computes_share(self):
        profile = ExecProfile()
        profile.note_run("fused", payload(1.0, cycles=1000,
                                          fused_cycles=500,
                                          fused_blocks=3))
        profile.note_run("plain", payload(1.0))
        (row,) = profile.top_fused()
        assert row["label"] == "fused"
        assert row["fused_share"] == 0.5

    def test_note_run_tolerates_sparse_payloads(self):
        profile = ExecProfile()
        profile.note_run("sparse", None)
        profile.note_run("partial", {"elapsed": 0.5})
        assert profile.runs[0]["cycles"] == 0
        assert profile.runs[1]["elapsed"] == 0.5


class TestSerialization:
    def build(self):
        profile = ExecProfile()
        with profile.phase("digest"):
            pass
        profile.note_run("r1", payload(0.2, fused_cycles=10,
                                       fused_blocks=1))
        return profile

    def test_as_dict_round_trips_through_profile_from_dict(self):
        doc = self.build().as_dict()
        assert set(doc) == {"phases", "runs_profiled", "top_runs",
                            "top_fused"}
        assert doc["runs_profiled"] == 1
        recovered = profile_from_dict(doc)
        assert recovered.as_dict()["phases"].keys() == \
            doc["phases"].keys()
        assert recovered.as_dict()["top_runs"] == doc["top_runs"]

    def test_profile_from_dict_of_nothing(self):
        assert profile_from_dict(None) is None
        assert profile_from_dict({}) is None

    def test_report_mentions_phases_and_runs(self):
        report = self.build().report()
        assert "phase digest" in report
        assert "r1" in report
        assert "fused cycles" in report
