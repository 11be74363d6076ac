"""Job model: stable keys, serialization round-trips, content digests."""

import pytest

from repro.exec import RunRequest, execute_request, request_digest
from repro.exec.job import resolve_channels, resolve_program
from repro.kernels import DESIGNS, WITH_SYNC, WITHOUT_SYNC, BenchmarkRun
from repro.platform import PlatformConfig, SyncPolicy
from repro.platform.trace import ActivityTrace

SMALL = dict(n_samples=8, num_cores=2)


class TestStableKeys:
    def test_platform_config_round_trip(self):
        config = PlatformConfig(num_cores=4, policy=SyncPolicy.HW_BARRIER,
                                dm_interleaved=True, im_broadcast=False)
        clone = PlatformConfig.from_json(config.to_json())
        assert clone.to_key() == config.to_key()
        assert clone.policy == config.policy
        assert clone.num_cores == 4 and clone.dm_interleaved

    def test_policy_flag_names_are_value_independent(self):
        # the wire form names members, so renumbering the enum is safe
        names = SyncPolicy.FULL.flag_names()
        assert SyncPolicy.from_flag_names(names) == SyncPolicy.FULL
        assert SyncPolicy.from_flag_names(()) == SyncPolicy.NONE

    def test_design_round_trip(self):
        for design in DESIGNS.values():
            clone = type(design).from_json(design.to_json())
            assert clone.to_key() == design.to_key()

    def test_request_key_equality(self):
        a = RunRequest("SQRT32", WITH_SYNC, **SMALL)
        b = RunRequest("SQRT32", WITH_SYNC, **SMALL)
        assert a.to_key() == b.to_key()
        assert a.to_key() != RunRequest("SQRT32", WITHOUT_SYNC,
                                        **SMALL).to_key()


class TestBenchmarkRunSerialization:
    def test_round_trip_preserves_content(self):
        payload = execute_request(RunRequest("SQRT32", WITH_SYNC, **SMALL))
        run = BenchmarkRun.from_json(payload["run"])
        assert isinstance(run.trace, ActivityTrace)
        assert run.to_key() == BenchmarkRun.from_json(run.to_json()).to_key()
        assert run.to_json() == payload["run"]
        assert payload["golden_match"] is True

    def test_trace_from_dict_restores_histogram_keys(self):
        payload = execute_request(RunRequest("SQRT32", WITH_SYNC, **SMALL))
        trace = BenchmarkRun.from_json(payload["run"]).trace
        assert all(isinstance(k, int)
                   for k in trace.lockstep_histogram)


class TestDigests:
    def test_identical_requests_share_a_digest(self):
        a = request_digest(RunRequest("SQRT32", WITH_SYNC, **SMALL))
        b = request_digest(RunRequest("SQRT32", WITH_SYNC, **SMALL))
        assert a == b

    @pytest.mark.parametrize("change", [
        dict(n_samples=9),
        dict(seed=7),
        dict(num_cores=4),
        dict(max_cycles=1_000),
        dict(verify=False),
        dict(config=PlatformConfig(num_cores=2, policy=SyncPolicy.FULL,
                                   dm_interleaved=True)),
    ])
    def test_any_input_change_changes_the_digest(self, change):
        base = dict(n_samples=8, num_cores=2)
        base.update(change)
        assert (request_digest(RunRequest("SQRT32", WITH_SYNC, **base))
                != request_digest(RunRequest("SQRT32", WITH_SYNC, **SMALL)))

    def test_compile_options_change_the_digest(self):
        base = RunRequest("MRPDLN", WITH_SYNC, **SMALL, sync_mode="auto")
        other = RunRequest("MRPDLN", WITH_SYNC, **SMALL, sync_mode="auto",
                           sync_min_statements=1000)
        assert request_digest(base) != request_digest(other)

    def test_the_design_default_sync_mode_shares_the_digest(self):
        """Naming the mode a design defaults to builds the same image and
        runs the same simulation: one run, one digest."""
        for design, mode in ((WITH_SYNC, "auto"), (WITHOUT_SYNC, "none")):
            default = RunRequest("MRPDLN", design, **SMALL)
            named = RunRequest("MRPDLN", design, **SMALL, sync_mode=mode)
            assert resolve_program(default) is resolve_program(named)
            assert request_digest(default) == request_digest(named)
        assert (request_digest(RunRequest("MRPDLN", WITH_SYNC, **SMALL))
                != request_digest(RunRequest("MRPDLN", WITH_SYNC, **SMALL,
                                             sync_mode="all")))

    def test_sync_mode_on_an_assembly_kernel_still_raises(self):
        with pytest.raises(ValueError, match="assembly"):
            request_digest(RunRequest("SQRT32", WITH_SYNC, **SMALL,
                                      sync_mode="auto"))

    def test_package_version_changes_the_digest(self):
        request = RunRequest("SQRT32", WITH_SYNC, **SMALL)
        assert (request_digest(request, version="999.0.0")
                != request_digest(request))

    def test_design_changes_the_digest(self):
        assert (request_digest(RunRequest("SQRT32", WITH_SYNC, **SMALL))
                != request_digest(RunRequest("SQRT32", WITHOUT_SYNC,
                                             **SMALL)))


class TestResolution:
    def test_channel_slicing_convention(self):
        # an n-core run sees the first n leads of the 8-lead recording
        two = resolve_channels(RunRequest("SQRT32", WITH_SYNC, n_samples=8,
                                          num_cores=2))
        eight = resolve_channels(RunRequest("SQRT32", WITH_SYNC,
                                            n_samples=8, num_cores=8))
        assert two == eight[:2]

    def test_explicit_channels_override(self):
        channels = ((1, 2, 3), (4, 5, 6))
        request = RunRequest("SQRT32", WITH_SYNC, num_cores=2,
                             channels=channels)
        assert resolve_channels(request) == [[1, 2, 3], [4, 5, 6]]

    def test_sync_overrides_rejected_for_assembly(self):
        with pytest.raises(ValueError, match="assembly"):
            resolve_program(RunRequest("SQRT32", WITH_SYNC,
                                       sync_mode="auto"))

    def test_minic_sync_points_reported(self):
        _, sync_points = resolve_program(
            RunRequest("MRPDLN", WITH_SYNC, **SMALL))
        assert sync_points and sync_points > 0
        _, asm_points = resolve_program(
            RunRequest("SQRT32", WITH_SYNC, **SMALL))
        assert asm_points is None

    def test_label_mentions_the_interesting_knobs(self):
        request = RunRequest("MRPDLN", WITH_SYNC, **SMALL, sync_mode="all",
                             sync_min_statements=5)
        assert "MRPDLN" in request.label
        assert "mode=all" in request.label and "min=5" in request.label
