"""Telemetry must be free: traced runs are bit-identical to untraced ones.

The whole design premise of :mod:`repro.telemetry` is that it observes
*event streams* the simulator produces anyway, so attaching a tracer
must neither perturb the simulation (same cycles, same ActivityTrace)
nor stand the fast engine down — and the events themselves must be
identical whichever engine produced them.  Each kernel runs on the
default with-sync platform, where no D-Xbar conflict arises, and with
interleaved DM banking, where the lockstep burst replays synchronous
conflicts and reports each one to the conflict listeners itself.
"""

import pytest

from repro.analysis import evaluation_channels
from repro.kernels import BENCHMARKS, build_program
from repro.kernels.suite import WITH_SYNC
from repro.platform import Machine, PlatformConfig, SyncPolicy
from repro.telemetry import BarrierTracer

N_SAMPLES = 16
INTERLEAVED = PlatformConfig(policy=SyncPolicy.FULL, dm_interleaved=True)


def prepared(bench, config=None, *, fast_engine=True):
    channels = evaluation_channels(N_SAMPLES)
    program = build_program(bench, True)
    machine = Machine(program,
                      config or WITH_SYNC.platform_config(len(channels)),
                      fast_engine=fast_engine)
    for core, channel in enumerate(channels):
        machine.dm.load(core * 2048, [v & 0xFFFF for v in channel])
    from repro.kernels.sqrt32 import N_SAMPLES_ADDRESS

    address = program.symbols.get("g_n_samples", N_SAMPLES_ADDRESS)
    machine.dm.write(address, len(channels[0]))
    return machine


@pytest.mark.parametrize("bench,config", [
    *(pytest.param(bench, None, id=bench) for bench in BENCHMARKS),
    *(pytest.param(bench, INTERLEAVED, id=f"{bench}-interleaved")
      for bench in BENCHMARKS),
])
class TestTracerIsFree:
    def test_traced_run_identical_to_untraced(self, bench, config):
        traced = prepared(bench, config)
        BarrierTracer(traced)
        traced.run()
        untraced = prepared(bench, config)
        untraced.run()
        assert traced.trace.as_dict() == untraced.trace.as_dict()
        # listeners shift no work to step(): the engine takes the same
        # paths, conflict replays included
        assert (traced.engine_stats.as_dict()
                == untraced.engine_stats.as_dict())

    def test_fast_engine_stays_engaged_with_tracer(self, bench, config):
        machine = prepared(bench, config)
        BarrierTracer(machine)
        machine.run()
        stats = machine.engine_stats
        assert stats.engaged
        assert stats.fast_cycles > 0
        assert stats.as_dict()["lockstep_cycles"] == stats.lockstep_cycles

    def test_fast_and_reference_engines_emit_identical_events(self, bench,
                                                             config):
        fast = prepared(bench, config, fast_engine=True)
        slow = prepared(bench, config, fast_engine=False)
        t_fast, t_slow = BarrierTracer(fast), BarrierTracer(slow)
        fast.run()
        slow.run()
        assert fast.trace.as_dict() == slow.trace.as_dict()
        assert ([s.to_json() for s in t_fast.spans]
                == [s.to_json() for s in t_slow.spans])
        assert ([c.to_json() for c in t_fast.conflicts]
                == [c.to_json() for c in t_slow.conflicts])
        assert t_fast.summary() == t_slow.summary()
        if config is not None:
            # the comparison covers conflicts, replayed ones included
            assert t_fast.conflicts
            assert fast.engine_stats.lockstep_cycles > 0

    def test_wait_cross_check(self, bench, config):
        machine = prepared(bench, config)
        tracer = BarrierTracer(machine)
        machine.run()
        assert not tracer.open_spans
        assert tracer.total_wait_cycles() == machine.trace.sync_wait_cycles
