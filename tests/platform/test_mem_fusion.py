"""Differential proof that memory-fused superblocks are cycle-exact.

Memory fusion inlines LD/ST whose effective addresses the compiler
claims are core-uniform (``;@mem=U``) or coreid-affine with a
bank-local stride (``;@mem=A<k>``) straight into fused closures.  The
facts are *hints*: every fused execution re-checks the actual
cross-core addresses, and a failed guard rolls the block back to the
reference ``step()`` path.  These tests pin both halves of that
contract:

- correct facts: memory-dense programs stay bit-identical to the
  reference engine across broadcast ablations and core counts, with
  zero guard deopts;
- wrong facts (deliberate bank conflicts, non-uniform "uniform"
  reads): the guard must fire, the block must deopt, and the D-Xbar
  arbitration (conflict counters, rotating priorities) must match the
  reference cycle-for-cycle;
- interrupts landing inside a would-be memory block are delivered
  cycle-exactly on both engines.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.isa.assembler import assemble
from repro.platform import Machine, PlatformConfig

from .test_engine_differential import (
    assert_equivalent,
    channels,
    run_pair,
)

BANK_WORDS = 2048


def load_channels(machine, n=32):
    for core, channel in enumerate(channels(n, machine.config.num_cores)):
        machine.dm.load(core * BANK_WORDS, channel)


# a memory-dense loop: five private-bank accesses plus one shared
# broadcast read per iteration, all carrying correct compiler facts
MEM_DENSE = """
.entry main
main:
    MFSR R0, COREID
    LI R1, #2048
    MUL R1, R0, R1          ; R1 = private bank base
    CLR R7                  ; shared pointer (word 0, core 0's bank)
    LI R6, #{iters}
loop:
    LD R2, [R1]             ;@mem=A2048
    LD R3, [R1 + #1]        ;@mem=A2048
    ADD R4, R2, R3
    ST R4, [R1 + #8]        ;@mem=A2048
    ADDI R4, R4, #3
    ST R4, [R1 + #9]        ;@mem=A2048
    LD R5, [R7]             ;@mem=U
    ADD R4, R4, R5
    ST R4, [R1 + #10]       ;@mem=A2048
    ADDI R6, R6, #-1
    CMPI R6, #0
    LBNE loop
    HALT
"""

MEM_CONFIGS = {
    "default": PlatformConfig(num_cores=8),
    "no-im-broadcast": PlatformConfig(num_cores=8, im_broadcast=False),
    "no-dm-broadcast": PlatformConfig(num_cores=8, dm_broadcast=False),
    "no-broadcast": PlatformConfig(num_cores=8, im_broadcast=False,
                                   dm_broadcast=False),
    "4-core": PlatformConfig(num_cores=4),
    "single-core": PlatformConfig(num_cores=1),
}


@pytest.mark.parametrize("config_name", sorted(MEM_CONFIGS))
def test_memory_dense_differential(config_name):
    config = MEM_CONFIGS[config_name]
    program = assemble(MEM_DENSE.format(iters=20))
    fast, slow = run_pair(program, config, load_channels,
                          max_cycles=50_000)
    assert_equivalent(fast, slow)
    stats = fast.engine_stats
    # fusion rides the lockstep burst, which needs IM broadcast (or a
    # single requester); correct facts never misfire in any regime
    if config.im_broadcast or config.num_cores == 1:
        assert stats.mem_fused_blocks > 0
        assert stats.mem_fused_ops > 0
    assert stats.term_guard == 0


def test_uniform_load_needs_broadcast_to_fuse():
    """Without dm_broadcast a multi-core uniform LD is excluded
    *statically* — fewer ops fuse, but nothing ever guard-fails."""
    program = assemble(MEM_DENSE.format(iters=10))
    on = Machine(program, MEM_CONFIGS["default"])
    off = Machine(program, MEM_CONFIGS["no-dm-broadcast"])
    for machine in (on, off):
        load_channels(machine)
        machine.run(max_cycles=50_000)
    assert off.engine_stats.term_guard == 0
    assert (off.engine_stats.mem_fused_ops
            < on.engine_stats.mem_fused_ops)


def test_termination_census_accounts_blocks():
    program = assemble(MEM_DENSE.format(iters=10))
    machine = Machine(program, MEM_CONFIGS["default"])
    load_channels(machine)
    machine.run(max_cycles=50_000)
    stats = machine.engine_stats
    total_terms = (stats.term_mem + stats.term_sync + stats.term_stop
                   + stats.term_diverge + stats.term_cap)
    assert total_terms == stats.fused_blocks
    payload = stats.as_dict()
    for key in ("mem_fused_blocks", "mem_fused_ops", "term_mem",
                "term_sync", "term_stop", "term_diverge", "term_cap",
                "term_guard"):
        assert payload[key] == getattr(stats, key)


# ---------------------------------------------------------------------------
# Wrong facts: the runtime guard must catch them, arbitration-exactly
# ---------------------------------------------------------------------------

# claims a coreid-affine store, but every core actually writes the same
# address — a hard bank conflict the reference D-Xbar must serialize
LYING_AFFINE = """
.entry main
main:
    LI R1, #64              ; same base on every core
    LI R6, #{iters}
loop:
    ADDI R2, R6, #7
    ST R2, [R1]             ;@mem=A2048
    LD R3, [R1]             ;@mem=A2048
    ADD R4, R3, R2
    ADDI R6, R6, #-1
    CMPI R6, #0
    LBNE loop
    HALT
"""

# claims a uniform read, but the address is coreid-dependent
LYING_UNIFORM = """
.entry main
main:
    MFSR R0, COREID
    LI R1, #2048
    MUL R1, R0, R1
    LI R6, #{iters}
loop:
    LD R2, [R1]             ;@mem=U
    ADD R3, R3, R2
    ADDI R6, R6, #-1
    CMPI R6, #0
    LBNE loop
    HALT
"""


@pytest.mark.parametrize("source,needs_conflicts", [
    (LYING_AFFINE, True),
    (LYING_UNIFORM, False),
])
def test_wrong_facts_deopt_arbitration_exact(source, needs_conflicts):
    program = assemble(source.format(iters=12))
    fast, slow = run_pair(program, PlatformConfig(num_cores=8),
                          load_channels, max_cycles=50_000)
    assert_equivalent(fast, slow)
    stats = fast.engine_stats
    # the lie is caught at run time, never committed
    assert stats.term_guard > 0
    assert stats.deopt_count >= stats.term_guard
    if needs_conflicts:
        # the replayed reference path serializes the bank conflict
        assert fast.trace.dm_conflict_cycles > 0


def test_wrong_fact_single_core_never_misfires():
    """With one core every access pattern is trivially conflict-free,
    so even a lying fact fuses and commits without guards firing."""
    program = assemble(LYING_AFFINE.format(iters=12))
    fast, slow = run_pair(program, PlatformConfig(num_cores=1),
                          load_channels, max_cycles=50_000)
    assert_equivalent(fast, slow)
    assert fast.engine_stats.term_guard == 0
    assert fast.engine_stats.mem_fused_ops > 0


# every core loads its own word of bank 0, after lockstep work the
# burst runs first: a conflict no fast path may serve
CONFLICTING_LD = """
.entry main
main:
    MFSR R0, COREID
    ADDI R1, R0, #1
    ADDI R2, R1, #2
    ADDI R3, R2, #3
    LD R4, [R0]
    ADD R5, R4, R3
spin:
    JMP spin
"""


def test_one_conflicting_load_is_one_deopt():
    """The burst runs up to the LD, fails its guard and hands the cycle
    straight to step(): one guard failure is one deopt, not a second
    zero-cycle burst failing the same guard again."""
    program = assemble(CONFLICTING_LD)
    fast, slow = (Machine(program, PlatformConfig(num_cores=8),
                          fast_engine=fast_engine)
                  for fast_engine in (True, False))
    for machine in (fast, slow):
        machine.run_cycles(200)
    assert_equivalent(fast, slow)
    assert fast.trace.dm_conflict_cycles > 0
    assert fast.engine_stats.lockstep_cycles > 0
    assert fast.engine_stats.deopt_count == 1


# ---------------------------------------------------------------------------
# IRQs landing inside a would-be memory block
# ---------------------------------------------------------------------------

IRQ_MEM_BLOCK = """
.entry main
isr:
    INC R5                  ; interrupts taken
    CMP R5, R3
    LBGE done
    RETI
done:
    HALT
main:
    MFSR R0, COREID
    LI R1, #2048
    MUL R1, R0, R1
    LI R2, #isr
    MTSR IVEC, R2
    CLR R5
    LI R3, #{expected}
    EI
loop:
    LD R2, [R1]             ;@mem=A2048
    ADDI R2, R2, #1
    ST R2, [R1]             ;@mem=A2048
    LD R4, [R1 + #4]        ;@mem=A2048
    ADD R4, R4, R2
    ST R4, [R1 + #5]        ;@mem=A2048
    JMP loop
"""


@pytest.mark.parametrize("cycles", [
    (23, 24, 90),            # adjacent pair pends one IRQ inside the ISR
    (50, 120, 200),          # spread out
    (9, 77, 78),             # during the startup burst + adjacent pair
])
def test_irq_lands_inside_mem_block(cycles):
    program = assemble(IRQ_MEM_BLOCK.format(expected=len(cycles)))

    def setup(machine):
        load_channels(machine)
        for cycle in cycles:
            for core in range(machine.config.num_cores):
                machine.schedule_interrupt(cycle, core)

    fast, slow = run_pair(program, PlatformConfig(num_cores=8), setup,
                          max_cycles=50_000)
    assert_equivalent(fast, slow)
    assert all(core.regs[5] == len(cycles) for core in fast.cores)
    assert fast.engine_stats.mem_fused_blocks > 0


# ---------------------------------------------------------------------------
# Facts are versioned artifacts: digest + per-geometry block tables
# ---------------------------------------------------------------------------

def test_mem_facts_version_the_digest():
    plain = assemble(MEM_DENSE.format(iters=4).replace(";@mem=A2048", "")
                     .replace(";@mem=U", ""))
    tagged = assemble(MEM_DENSE.format(iters=4))
    assert plain.instructions == tagged.instructions
    assert plain.digest() != tagged.digest()
    assert not plain.mem_facts and tagged.mem_facts


def test_block_tables_keyed_by_geometry():
    from repro.cpu.blocks import table_for

    program = assemble(MEM_DENSE.format(iters=4))
    default = table_for(program, MEM_CONFIGS["default"])
    ablated = table_for(program, MEM_CONFIGS["no-dm-broadcast"])
    bare = table_for(program)
    assert table_for(program, MEM_CONFIGS["default"]) is default
    assert ablated is not default
    assert bare is not default


# ---------------------------------------------------------------------------
# Barrier fast path: merged lockstep SINC/SDEC without step()
# ---------------------------------------------------------------------------

BARRIER_LOOP = """
.entry main
main:
    LI R1, #30720           ; DEFAULT_SYNC_BASE
    MTSR RSYNC, R1
    LI R6, #{iters}
loop:
    SINC #0
    MFSR R0, COREID
    ADDI R0, R0, #1
    SDEC #0
    ADDI R6, R6, #-1
    CMPI R6, #0
    LBNE loop
    HALT
"""


@pytest.mark.parametrize("config_name", ["default", "4-core",
                                         "single-core"])
def test_barrier_fast_path_differential(config_name):
    config = MEM_CONFIGS[config_name]
    program = assemble(BARRIER_LOOP.format(iters=16))
    fast, slow = run_pair(program, config, load_channels,
                          max_cycles=50_000)
    assert_equivalent(fast, slow)
    stats = fast.engine_stats
    assert stats.sync_fused_rmws > 0
    assert stats.engaged
    # every fused RMW is two cycles inside lockstep_cycles
    assert stats.lockstep_cycles >= 2 * stats.sync_fused_rmws


# Cores 4..7 wait in SLEEP for an interrupt, so cores 0..3 check out in
# lockstep while the barrier is still open and fall asleep; the IRQ-woken
# cores check out last and release the barrier, waking them.
BARRIER_SLEEP = """
.entry main
isr:
    RETI
main:
    LI R1, #30720           ; DEFAULT_SYNC_BASE
    MTSR RSYNC, R1
    LI R1, #isr
    MTSR IVEC, R1
    EI
    MFSR R0, COREID
    SINC #0
    CMPI R0, #4
    BLT group_a
    SLEEP
    SDEC #0
    HALT
group_a:
    LI R2, #6
spin:
    DEC R2
    BNE spin
    SDEC #0
    ADD R3, R3, R3
    HALT
"""


def test_barrier_checkout_that_sleeps_ends_the_burst():
    """A lockstep check-out that leaves the barrier open is replayed by
    the burst, which then puts its cores to sleep; the release that
    wakes them is replayed too — both bit-exact with ``step()``."""
    def setup(machine):
        for core in range(4, 8):
            machine.schedule_interrupt(200, core)

    fast, slow = run_pair(assemble(BARRIER_SLEEP), MEM_CONFIGS["default"],
                          setup, max_cycles=10_000)
    assert_equivalent(fast, slow)
    assert fast.trace.sync_wakeups == 1
    assert fast.trace.sync_wait_cycles > 0
    # the check-in, the sleeping check-out and the releasing check-out
    assert fast.engine_stats.sync_fused_rmws == 3


# After the shared check-in, cores 0..3 (group A, the first divergent
# winner) check out and sleep; cores 4..7 (group B) fetch `{b_first}` in
# the cycle A's check-out writes the checkpoint word, then release A.
BARRIER_SPLIT = """
.entry main
isr:
    RETI
main:
    LI R1, #isr
    MTSR IVEC, R1
    EI
    LI R1, #30720           ; DEFAULT_SYNC_BASE
    MTSR RSYNC, R1
    LI R7, #{address}
    MFSR R0, COREID
    SINC #0
    CMPI R0, #4
    BLT group_a
    {b_first}
    ADD R3, R3, R3
    SDEC #0
    HALT
group_a:
    SDEC #0
    ADD R3, R3, R3
    HALT
"""


def run_split(b_first, config=None, address=0, setup=None):
    program = assemble(BARRIER_SPLIT.format(b_first=b_first,
                                            address=address))
    fast, slow = run_pair(program, config or MEM_CONFIGS["default"],
                          setup, max_cycles=10_000)
    assert_equivalent(fast, slow)
    assert fast.trace.sync_wakeups == 1
    return fast


@pytest.mark.parametrize("address,replayed", [(0, False), (1, True)])
def test_divergent_checkout_beside_a_load(address, replayed):
    """Group B's broadcast LD shares the write cycle of A's divergent
    check-out.  With interleaved DM the checkpoint word (30720) sits in
    bank 0: a load from word 0 needs the port the write holds, so the
    burst leaves the exchange to step(); word 1 is in bank 1, so the
    burst replays both cycles, the load included."""
    config = PlatformConfig(num_cores=8, dm_interleaved=True)
    fast = run_split("LD R2, [R7]", config, address)
    stats = fast.engine_stats
    assert stats.divergent_cycles > 0
    # the bursts replay every exchange but a check-out left to step()
    assert stats.sync_fused_rmws == fast.trace.sync_rmw_ops - (not replayed)
    if not replayed:
        assert fast.trace.dm_conflict_cycles > 0


def test_divergent_checkout_beside_the_same_checkpoint():
    """Group B fetches its own check-out of the same checkpoint in the
    cycle A's check-out writes it: the reference refuses B's request
    (the word's bank port is taken), so the burst declines, and step()
    runs the exchange and the retry."""
    fast = run_split("SDEC #0\n    HALT")
    # only the lockstep check-in was replayed
    assert fast.engine_stats.sync_fused_rmws == 1
    assert fast.synchronizer.stats[30720].blocked_requests == 4


@pytest.mark.parametrize("irq_on_wake", [False, True])
def test_latched_wake_beside_an_interrupt(irq_on_wake):
    """B's release, replayed by its lockstep burst in cycle W, latches
    A's wakeup for cycle W+1.  The fast path applies it and runs that
    cycle itself, unless an interrupt is due then: step() runs the
    cycle, applying the wakeup before it delivers the interrupt to the
    woken core 0."""
    program = assemble(BARRIER_SPLIT.format(b_first="ADD R4, R4, R4",
                                            address=0))
    releases = []

    def on_completion(cycle, completion):
        if completion.barrier_released:
            releases.append(cycle)

    probe = Machine(program, MEM_CONFIGS["default"])
    probe.synchronizer.listeners.append(on_completion)
    probe.run(max_cycles=10_000)
    (release,) = releases

    fast, slow = (Machine(program, MEM_CONFIGS["default"],
                          fast_engine=fast_engine)
                  for fast_engine in (True, False))
    if irq_on_wake:
        for machine in (fast, slow):
            machine.schedule_interrupt(release + 1, 0)
    fast.run_cycles(release)
    stats = fast.engine_stats
    assert fast._wake_next
    # every exchange was replayed by a burst: the shared check-in, A's
    # divergent check-out and B's release
    assert stats.sync_fused_rmws == 3
    before = stats.fast_cycles
    fast.run_cycles(1)
    assert stats.fast_cycles - before == (not irq_on_wake)
    for machine in (fast, slow):
        machine.run(max_cycles=10_000)
    assert_equivalent(fast, slow)
    assert fast.trace.sync_wakeups == 1
    # core 0 alone ran the handler's RETI
    retired = fast.trace.retired_per_core
    assert retired[0] - retired[1] == irq_on_wake


def test_barrier_protocol_violation_raises_on_both_engines():
    """An orphan check-out must defer to the reference, which raises —
    the fast path never commits a protocol-violating RMW."""
    from repro.platform.synchronizer import SynchronizationError

    source = """
.entry main
main:
    LI R1, #30720
    MTSR RSYNC, R1
    SDEC #0
    HALT
"""
    program = assemble(source)
    for fast_engine in (True, False):
        machine = Machine(program, PlatformConfig(num_cores=8),
                          fast_engine=fast_engine)
        with pytest.raises(SynchronizationError):
            machine.run(max_cycles=1_000)


# ---------------------------------------------------------------------------
# Randomized memory-dense programs (hypothesis)
# ---------------------------------------------------------------------------

_ALU = ["ADD R{a}, R{b}, R{c}", "SUB R{a}, R{b}, R{c}",
        "XOR R{a}, R{b}, R{c}", "ADDI R{a}, R{b}, #{imm}",
        "MOV R{a}, R{b}"]


def random_mem_dense_program(seed, iters=8):
    """Seeded loop mixing correctly-tagged private/shared accesses with
    ALU filler — every access pattern the static gate can admit."""
    rng = random.Random(seed)
    lines = [".entry main", "main:",
             " MFSR R0, COREID",
             " LI R1, #2048",
             " MUL R1, R0, R1",
             " CLR R7",
             f" LI R6, #{iters}",
             "loop:"]
    for _ in range(rng.randint(4, 12)):
        roll = rng.random()
        reg = rng.randint(2, 4)
        off = rng.randint(0, 31)
        if roll < 0.3:
            lines.append(f" LD R{reg}, [R1 + #{off}] ;@mem=A2048")
        elif roll < 0.5:
            lines.append(f" ST R{reg}, [R1 + #{off}] ;@mem=A2048")
        elif roll < 0.6:
            lines.append(f" LD R{reg}, [R7 + #{off}] ;@mem=U")
        else:
            lines.append(" " + rng.choice(_ALU).format(
                a=rng.randint(2, 4), b=rng.randint(2, 4),
                c=rng.randint(2, 4), imm=rng.randint(-16, 15)))
    lines += [" ADDI R6, R6, #-1",
              " CMPI R6, #0",
              " LBNE loop",
              " HALT"]
    return "\n".join(lines) + "\n"


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**32 - 1),
       broadcast=st.booleans())
def test_random_memory_dense_differential(seed, broadcast):
    program = assemble(random_mem_dense_program(seed))
    config = PlatformConfig(num_cores=8, im_broadcast=broadcast,
                            dm_broadcast=broadcast)
    fast, slow = run_pair(program, config, load_channels,
                          max_cycles=50_000)
    assert_equivalent(fast, slow)
    assert fast.engine_stats.term_guard == 0
