"""Differential proof that if-converted hammocks execute exactly.

Random minic programs whose single-arm, data-dependent ``if``
statements compile to predicated hammocks (``Program.hammocks``) run
through three engines — the reference per-cycle ``step()``, the scalar
fast engine (``repro.cpu.blocks`` inlines the hammock under ``_hp``
predicate bits), and the batched vec engine (``repro.cpu.vec`` commits
both paths under a lane mask) — and every observable must match: the
outputs, every register/flag/PC of every core, and the full
:class:`~repro.platform.trace.ActivityTrace`, which pins the *cycle
cost* of every lane to the taken-path cost the predicated block
credited.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.compiler import compile_source
from repro.cpu import vec
from repro.platform import Machine, PlatformConfig, SyncPolicy

from ..oracles import machine_state

CONFIG = PlatformConfig(policy=SyncPolicy.NONE)
MAX_CYCLES = 2_000_000

#: a minic kernel whose per-core data drives short single-arm ifs —
#: exactly the shape the if-converter targets (guarded assignments,
#: no calls, no stores, bounded arms)
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


# ---------------------------------------------------------------------------
# Random hammock programs
# ---------------------------------------------------------------------------

_COND_TEMPLATES = [
    "({v} & {k})", "({v} > {w})", "({v} < {k})", "({v} != {w})",
    "(({v} ^ {w}) & {k})",
]
_ARM_TEMPLATES = [
    "{t} = {t} + {w};", "{t} = {t} - {k};", "{t} = {t} ^ {w};",
    "{t} = {w} * {k};", "{t} = {t} + {k}; {u} = {u} ^ {t};",
]
_VARS = ["a", "b", "c"]


@st.composite
def hammock_programs(draw):
    """A minic kernel made of guarded single-arm assignments."""
    lines = [
        "int in[8];",
        "int out[8];",
        "void main() {",
        "    int id = __coreid();",
        "    int x = in[id];",
        "    int a = x * 3 + id;",
        "    int b = x - 5;",
        "    int c = (x >> 2) ^ id;",
    ]
    for _ in range(draw(st.integers(2, 5))):
        cond = draw(st.sampled_from(_COND_TEMPLATES)).format(
            v=draw(st.sampled_from(_VARS + ["x"])),
            w=draw(st.sampled_from(_VARS)),
            k=draw(st.integers(1, 7)))
        target = draw(st.sampled_from(_VARS))
        other = draw(st.sampled_from(_VARS))
        arm = draw(st.sampled_from(_ARM_TEMPLATES)).format(
            t=target, u=other, w=draw(st.sampled_from(_VARS + ["x"])),
            k=draw(st.integers(1, 7)))
        lines.append(f"    if {cond} {{ {arm} }}")
    lines.append("    out[id] = (a ^ b) + c;")
    lines.append("}")
    return "\n".join(lines)


input_rows = st.lists(st.integers(0, 4095), min_size=8, max_size=8)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(hammock_programs(), input_rows)
def test_random_hammocks_scalar_differential(source, inputs):
    compiled = compile_source(source, sync_mode="none")
    fast = run_compiled(compiled, inputs, fast_engine=True)
    reference = run_compiled(compiled, inputs, fast_engine=False)
    assert machine_state(fast) == machine_state(reference), source


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(hammock_programs(), st.lists(input_rows, min_size=3, max_size=3))
def test_random_hammocks_batched_differential(source, runs):
    # lanes of the same batch take different arms: the masked commit
    # (or, on an intra-run split, the degenerate branch) must leave
    # every machine bit-identical to its serial twin, cycle counts
    # included
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


#: lockstep cores reach the hammock together and disagree on its arm:
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
    stats = fast.engine_stats
    assert stats.pred_aborts > 0
    # an abort runs the prefix inside the burst and hands the split to
    # the divergent burst; it does not fall back to step() per prefix PC
    assert fast.trace.cycles - stats.fast_cycles < stats.pred_aborts


class TestEngagement:
    def test_compiler_stamps_hammock_facts(self):
        compiled = compile_source(CANONICAL, sync_mode="none")
        hammocks = compiled.program.hammocks
        assert hammocks
        for head, h in hammocks.items():
            assert h.head == head
            assert h.arm_len >= 1
            assert h.join > h.head

    def test_scalar_predication_engages_and_is_cycle_exact(self):
        compiled = compile_source(CANONICAL, sync_mode="none")
        inputs = [5, 2, 9, 14, 7, 1, 0, 1023]
        fast = run_compiled(compiled, inputs, fast_engine=True)
        reference = run_compiled(compiled, inputs, fast_engine=False)
        assert fast.engine_stats.pred_blocks > 0
        assert fast.engine_stats.pred_cycles > 0
        # trace equality pins each core's cycle cost to the taken path
        assert machine_state(fast) == machine_state(reference)

    def test_vec_predication_engages_and_is_cycle_exact(self):
        compiled = compile_source(CANONICAL, sync_mode="none")
        # run 0's lanes agree per-run but differ across runs; run 2
        # mixes odd/even lanes so the masked commit is exercised
        runs = [[6, 6, 6, 6, 6, 6, 6, 6],
                [7, 7, 7, 7, 7, 7, 7, 7],
                [5, 2, 9, 14, 7, 1, 0, 1023]]
        serial = [run_compiled(compiled, inputs) for inputs in runs]
        batched = []
        for inputs in runs:
            machine = Machine(compiled.program, CONFIG, fast_engine=True)
            machine.dm.load(compiled.symbol("in"), list(inputs))
            batched.append(machine)
        vec.run_batch(batched, limit=MAX_CYCLES)
        for machine in batched:
            machine.run(max_cycles=MAX_CYCLES)
        assert sum(m.engine_stats.pred_blocks for m in batched) > 0
        for b, s in zip(batched, serial):
            assert machine_state(b) == machine_state(s)
