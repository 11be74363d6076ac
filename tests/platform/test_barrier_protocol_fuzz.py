"""Protocol fuzzing: random well-formed barrier programs never deadlock.

Generates random SPMD assembly with nested, conditionally-entered
check-in/check-out regions and per-core data-dependent delays — one knob
spaces the cores' arrivals at a check-out, so they reach it one at a
time — then asserts the protocol invariants: the run completes, every
check-in is matched by a check-out, every barrier wakes, and all
checkpoint words are zero afterwards.  Each program also runs through
every oracle: the reference ``step()`` engine must match the fast engine
bit for bit, and the timing-free ISS must agree on what it can see.  In
these programs subsets of cores check out and sleep, and releases wake
them.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.platform import FunctionalSimulator, Machine, WITH_SYNCHRONIZER
from repro.sync.points import DEFAULT_SYNC_BASE

from tests.oracles import assert_equivalent

MAX_REGIONS = 24


class _ProgramBuilder:
    def __init__(self):
        self.lines = [
            f"    LI R1, #{DEFAULT_SYNC_BASE}",
            "    MTSR RSYNC, R1",
            "    MFSR R0, COREID",
        ]
        self.label_counter = 0
        self.region_counter = 0

    def label(self, hint):
        self.label_counter += 1
        return f"{hint}{self.label_counter}"

    def emit(self, text):
        self.lines.append(f"    {text}")

    def source(self):
        return "\n".join(self.lines + ["    HALT"])


def _gen_body(draw, builder, depth):
    count = draw(st.integers(1, 3))
    for _ in range(count):
        kind = draw(st.integers(0, 3 if depth > 0 else 2))
        if kind == 0:
            # plain straight-line work
            for _ in range(draw(st.integers(1, 4))):
                builder.emit("ADD R3, R3, R3")
        elif kind == 1:
            # per-core data-dependent delay loop
            loop = builder.label("delay")
            skip = builder.label("dskip")
            divisor = draw(st.integers(1, 3))
            builder.emit(f"MOV R2, R0")
            if divisor > 1:
                builder.emit(f"SRLI R2, #{divisor - 1}")
            builder.emit("CMPI R2, #0")
            builder.emit(f"LBEQ {skip}")
            builder.lines.append(f"{loop}:")
            builder.emit("DEC R2")
            builder.emit(f"LBNE {loop}")
            builder.lines.append(f"{skip}:")
        elif kind == 2:
            # conditionally-skipped block (subset of cores participates)
            threshold = draw(st.integers(0, 7))
            skip = builder.label("cskip")
            builder.emit(f"CMPI R0, #{threshold}")
            builder.emit(f"LBGT {skip}")
            if depth > 0 and draw(st.booleans()) \
                    and builder.region_counter < MAX_REGIONS:
                _gen_region(draw, builder, depth - 1)
            else:
                builder.emit("ADD R4, R4, R4")
            builder.lines.append(f"{skip}:")
        else:
            if builder.region_counter < MAX_REGIONS:
                _gen_region(draw, builder, depth - 1)


def _gen_stagger(draw, builder):
    """Per-core arrival: core c spins ``c * spacing`` loop iterations,
    so the cores reach the next instruction one at a time."""
    loop = builder.label("stagger")
    skip = builder.label("sskip")
    builder.emit("MOV R2, R0")
    for _ in range(draw(st.integers(2, 4)) - 1):      # R2 = R0 * spacing
        builder.emit("ADD R2, R2, R0")
    builder.emit("CMPI R2, #0")
    builder.emit(f"LBEQ {skip}")
    builder.lines.append(f"{loop}:")
    builder.emit("DEC R2")
    builder.emit(f"LBNE {loop}")
    builder.lines.append(f"{skip}:")


def _gen_region(draw, builder, depth):
    index = builder.region_counter
    builder.region_counter += 1
    builder.emit(f"SINC #{index}")
    _gen_body(draw, builder, depth)
    if draw(st.booleans()):
        _gen_stagger(draw, builder)
    builder.emit(f"SDEC #{index}")


@st.composite
def barrier_programs(draw):
    builder = _ProgramBuilder()
    _gen_region(draw, builder, depth=2)
    if draw(st.booleans()):
        _gen_region(draw, builder, depth=1)
    return builder.source(), builder.region_counter


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(barrier_programs())
def test_random_barrier_programs_complete(program_and_count):
    source, regions = program_and_count
    machine = Machine.from_assembly(source, WITH_SYNCHRONIZER)
    machine.run(max_cycles=500_000)

    trace = machine.trace
    assert machine.all_halted
    assert trace.sync_checkins == trace.sync_checkouts
    assert trace.sync_wakeups >= 1
    # every checkpoint word is back to zero (all barriers fully released)
    for index in range(regions):
        assert machine.dm.read(DEFAULT_SYNC_BASE + index) == 0
    # every started RMW completed: stats balance per checkpoint
    for stats in machine.synchronizer.stats.values():
        assert stats.checkins == stats.checkouts

    reference = Machine.from_assembly(source, WITH_SYNCHRONIZER,
                                      fast_engine=False)
    reference.run(max_cycles=500_000)
    assert_equivalent(machine, reference)
    # The programs touch no memory outside the checkpoint array, so they
    # are race-free and the ISS must agree with the cycle machine.
    iss = FunctionalSimulator(machine.program)
    assert iss.run() == trace.retired_per_core
    assert [core.regs for core in iss.cores] \
        == [core.regs for core in machine.cores]
    assert iss.dump(DEFAULT_SYNC_BASE, regions) \
        == machine.dm.dump(DEFAULT_SYNC_BASE, regions)
