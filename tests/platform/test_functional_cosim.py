"""Co-simulation: the cycle machine vs the functional ISS.

For race-free programs the two independent implementations must agree on
all memory results and on per-core dynamic instruction counts; only
timing may differ.
"""

import pytest
from hypothesis import HealthCheck, given, settings

from repro.compiler import compile_source
from repro.dsp import generate_ecg
from repro.kernels import BENCHMARKS, WITH_SYNC, build_program
from repro.kernels.suite import run_benchmark
from repro.platform import (
    WITH_SYNCHRONIZER,
    Machine,
    PlatformConfig,
    SyncPolicy,
)
from repro.platform.functional import (
    FunctionalDeadlock,
    FunctionalSimulator,
)
from repro.platform.synchronizer import SynchronizationError

from tests.compiler.test_differential import spmd_programs

N = 24


@pytest.fixture(scope="module")
def channels():
    rec = generate_ecg(n_channels=8, n_samples=N)
    return [rec.channel(c) for c in range(8)]


def cosim_kernel(bench_name, channels):
    program = build_program(bench_name, True)
    # cycle-accurate run
    run = run_benchmark(bench_name, WITH_SYNC, channels)
    # functional run with the same inputs
    iss = FunctionalSimulator(program)
    for core, channel in enumerate(channels):
        for offset, value in enumerate(channel):
            iss.dm[core * 2048 + offset] = value & 0xFFFF
    address = program.symbols.get("g_n_samples", 16384)
    iss.dm[address] = len(channels[0])
    counts = iss.run()
    return run, iss, counts


class TestKernelCosim:
    @pytest.mark.parametrize("bench", list(BENCHMARKS))
    def test_results_identical(self, channels, bench):
        run, iss, _ = cosim_kernel(bench, channels)
        words = BENCHMARKS[bench].out_words(N)
        for core in range(8):
            cycle_raw = run.machine.dm.dump(core * 2048 + 512, words)
            iss_raw = iss.dump(core * 2048 + 512, words)
            assert cycle_raw == iss_raw, f"{bench} core {core}"

    @pytest.mark.parametrize("bench", list(BENCHMARKS))
    def test_instruction_counts_identical(self, channels, bench):
        run, _, counts = cosim_kernel(bench, channels)
        assert counts == run.trace.retired_per_core


class TestBarrierSemantics:
    def build(self, source, mode="auto"):
        return compile_source(source, sync_mode=mode).program

    def test_barrier_blocks_until_all_checkout(self):
        program = self.build("""
            int out[8];
            void main() {
                int id = __coreid();
                int n = 0;
                for (int i = 0; i < id; i = i + 1) { n = n + i; }
                out[id] = n;
            }
        """)
        iss = FunctionalSimulator(program)
        iss.run()
        assert iss.dump(16384, 8) == [0, 0, 1, 3, 6, 10, 15, 21]

    def test_unbalanced_checkin_deadlocks(self):
        from repro.isa.assembler import assemble

        program = assemble("""
            LI R1, #30720
            MTSR RSYNC, R1
            MFSR R0, COREID
            SINC #0
            CMPI R0, #0
            BEQ skip
            SDEC #0
        skip:
            HALT
        """)
        iss = FunctionalSimulator(program)
        with pytest.raises(FunctionalDeadlock):
            iss.run()

    @pytest.mark.parametrize("fast_engine", [True, False])
    def test_double_checkin_raises_in_both_models(self, fast_engine):
        # every core checks in twice: the counter would reach 16, which
        # a 4-bit field wraps to 0 — both models must flag the second
        # check-in instead of wrapping
        from repro.isa.assembler import assemble

        source = """
            LI R1, #30720
            MTSR RSYNC, R1
            SINC #0
            SINC #0
            SDEC #0
            SDEC #0
            HALT
        """
        machine = Machine(assemble(source), WITH_SYNCHRONIZER,
                          fast_engine=fast_engine)
        with pytest.raises(SynchronizationError, match="exceeds"):
            machine.run(max_cycles=1_000)
        iss = FunctionalSimulator(assemble(source))
        with pytest.raises(SynchronizationError, match="exceeds"):
            iss.run()

    def test_instruction_limit(self):
        from repro.isa.assembler import assemble

        iss = FunctionalSimulator(assemble("spin:\nJMP spin"))
        with pytest.raises(Exception):
            iss.run(max_steps=100)


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(spmd_programs())
def test_random_spmd_cosim(source):
    compiled = compile_source(source, sync_mode="auto")
    machine = Machine(compiled.program,
                      PlatformConfig(policy=SyncPolicy.FULL))
    machine.run(max_cycles=2_000_000)
    iss = FunctionalSimulator(compiled.program)
    counts = iss.run()
    base = compiled.symbol("out")
    assert iss.dump(base, 8) == machine.dm.dump(base, 8)
    assert counts == machine.trace.retired_per_core
