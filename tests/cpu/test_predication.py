"""Differential proof that data-dependent ``if`` statements execute
exactly.

Random minic programs whose single-arm ``if`` statements branch on
per-core data (:func:`tests.oracles.if_programs`) run through three
engines — the reference per-cycle ``step()``, the scalar fast engine
(whose lockstep burst splits at the branch and whose divergent burst
serves the arms) and the batched vec engine (which splits or peels the
runs whose cores disagree) — and every observable must match: the
outputs, every register/flag/PC of every core, and the full
:class:`~repro.platform.trace.ActivityTrace`.
"""

from hypothesis import HealthCheck, example, given, settings, \
    strategies as st

from repro.compiler import compile_source
from repro.cpu import vec
from repro.platform import Machine, PlatformConfig, SyncPolicy

from ..oracles import if_programs, machine_state

CONFIG = PlatformConfig(policy=SyncPolicy.NONE)
MAX_CYCLES = 2_000_000

#: a minic kernel whose per-core data drives short single-arm ifs
CANONICAL = """
int in[8];
int out[8];
void main() {
    int id = __coreid();
    int x = in[id];
    int a = x * 3 + id;
    int b = x - 5;
    if (x & 1) { a = a + b; }
    if (a > b) { b = b ^ a; }
    if (b & 2) { a = a - 1; }
    out[id] = (a ^ b);
}
"""


def run_compiled(compiled, inputs, *, fast_engine=True) -> Machine:
    machine = Machine(compiled.program, CONFIG, fast_engine=fast_engine)
    machine.dm.load(compiled.symbol("in"), list(inputs))
    machine.run(max_cycles=MAX_CYCLES)
    return machine


input_rows = st.lists(st.integers(0, 4095), min_size=8, max_size=8)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(if_programs(), input_rows)
@example(CANONICAL, [5, 2, 9, 14, 7, 1, 0, 1023])
def test_random_hammocks_scalar_differential(source, inputs):
    compiled = compile_source(source, sync_mode="none")
    fast = run_compiled(compiled, inputs, fast_engine=True)
    reference = run_compiled(compiled, inputs, fast_engine=False)
    assert machine_state(fast) == machine_state(reference), source


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(if_programs(), st.lists(input_rows, min_size=3, max_size=3))
# runs 0 and 1 agree within the run but differ from each other; run 2
# mixes odd and even lanes, so its cores split
@example(CANONICAL, [[6] * 8, [7] * 8, [5, 2, 9, 14, 7, 1, 0, 1023]])
def test_random_hammocks_batched_differential(source, runs):
    # lanes of the same batch take different arms: the split (or, on an
    # intra-run split, the peel) must leave every machine bit-identical
    # to its serial twin, cycle counts included
    compiled = compile_source(source, sync_mode="none")
    serial = [run_compiled(compiled, inputs) for inputs in runs]
    batched = []
    for inputs in runs:
        machine = Machine(compiled.program, CONFIG, fast_engine=True)
        machine.dm.load(compiled.symbol("in"), list(inputs))
        batched.append(machine)
    vec.run_batch(batched, limit=MAX_CYCLES)
    for machine in batched:
        machine.run(max_cycles=MAX_CYCLES)
    for b, s in zip(batched, serial):
        assert machine_state(b) == machine_state(s), source


#: lockstep cores reach a data-dependent branch together and disagree:
#: the BLT splits cores 0-3 from 4-7 after a four-instruction prefix
DISAGREEING_HAMMOCK = """
.entry main
main:
    MFSR R0, COREID
    LI R5, #10
loop:
    ADDI R1, R1, #1
    ADDI R2, R2, #2
    ADDI R3, R3, #3
    CMPI R0, #4
    BLT skip
    ADDI R4, R4, #1
skip:
    ADDI R5, R5, #-1
    CMPI R5, #0
    LBNE loop
    HALT
"""


def test_lockstep_hammock_disagreement_splits_in_burst():
    machines = []
    for fast_engine in (True, False):
        machine = Machine.from_assembly(
            DISAGREEING_HAMMOCK, PlatformConfig(num_cores=8),
            fast_engine=fast_engine)
        machine.run(max_cycles=10_000)
        machines.append(machine)
    fast, reference = machines
    assert machine_state(fast) == machine_state(reference)
    # the lockstep burst splits at the branch and hands the arms to the
    # divergent burst; it does not fall back to step() per iteration
    assert fast.trace.cycles - fast.engine_stats.fast_cycles <= 3
