"""Differential proof that the fast engine's LD/ST and barrier paths
are cycle-exact.

Every LD/ST ends a superblock and is served by the bursts' group path,
the synchronous-conflict replay or the divergent burst's lone winner —
or, when none of them can prove the cycle, by the reference ``step()``.
These tests pin that against the reference engine:

- memory-dense loops (private-bank and shared-word accesses, a store
  and a load that every core aims at one word, a "shared" read whose
  address depends on the core id) stay bit-identical across broadcast
  ablations and core counts, D-Xbar arbitration (conflict counters,
  rotating priorities) included;
- interrupts landing between lockstep LD/STs are delivered
  cycle-exactly on both engines;
- the D-Xbar serve kernel against its rule, and every lockstep request
  pattern — conflict-free, a synchronous one-bank conflict the lockstep
  burst replays, or one it must leave to ``step()`` — against the
  reference, conflict listener calls included;
- merged SINC/SDEC exchanges the bursts replay without ``step()``.
"""

import random
from dataclasses import astuple

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.isa.assembler import assemble
from repro.platform import Machine, PlatformConfig, SyncPolicy
from repro.platform.dxbar import serve_bank

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
# broadcast read per iteration
MEM_DENSE = """
.entry main
main:
    MFSR R0, COREID
    LI R1, #2048
    MUL R1, R0, R1          ; R1 = private bank base
    CLR R7                  ; shared pointer (word 0, core 0's bank)
    LI R6, #{iters}
loop:
    LD R2, [R1]
    LD R3, [R1 + #1]
    ADD R4, R2, R3
    ST R4, [R1 + #8]
    ADDI R4, R4, #3
    ST R4, [R1 + #9]
    LD R5, [R7]
    ADD R4, R4, R5
    ST R4, [R1 + #10]
    ADDI R6, R6, #-1
    CMPI R6, #0
    LBNE loop
    HALT
"""

# every core stores to and loads from one word — a hard bank conflict
# the D-Xbar must serialize
SHARED_WORD = """
.entry main
main:
    LI R1, #64              ; same base on every core
    LI R6, #{iters}
loop:
    ADDI R2, R6, #7
    ST R2, [R1]
    LD R3, [R1]
    ADD R4, R3, R2
    ADDI R6, R6, #-1
    CMPI R6, #0
    LBNE loop
    HALT
"""

# one load per core from its own bank, at an address that depends on
# the core id
PRIVATE_READ = """
.entry main
main:
    MFSR R0, COREID
    LI R1, #2048
    MUL R1, R0, R1
    LI R6, #{iters}
loop:
    LD R2, [R1]
    ADD R3, R3, R2
    ADDI R6, R6, #-1
    CMPI R6, #0
    LBNE loop
    HALT
"""

#: memory-dense programs and their loop counts
MEM_PROGRAMS = {
    "mem-dense": (MEM_DENSE, 20),
    "shared-word": (SHARED_WORD, 12),
    "private-read": (PRIVATE_READ, 12),
}

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
    for name, (source, iters) in sorted(MEM_PROGRAMS.items()):
        program = assemble(source.format(iters=iters))
        fast, slow = run_pair(program, config, load_channels,
                              max_cycles=50_000)
        assert_equivalent(fast, slow)
        if (name == "shared-word" and config.im_broadcast
                and config.num_cores > 1):
            # lockstep cores aim at one word: a serialized bank conflict
            assert fast.trace.dm_conflict_cycles > 0


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
    for key in ("term_mem", "term_sync", "term_stop", "term_diverge",
                "term_cap"):
        assert payload[key] == getattr(stats, key)


# every core loads its own word of bank 0, after lockstep work the
# burst runs first: an eight-way one-bank conflict
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


def run_conflicting_ld(policy):
    program = assemble(CONFLICTING_LD)
    fast, slow = (Machine(program, PlatformConfig(num_cores=8,
                                                  policy=policy),
                          fast_engine=fast_engine)
                  for fast_engine in (True, False))
    for machine in (fast, slow):
        machine.run_cycles(200)
    assert_equivalent(fast, slow)
    assert fast.trace.dm_conflict_cycles > 0
    assert fast.engine_stats.lockstep_cycles > 0
    return fast


def test_one_conflicting_load_is_one_deopt():
    """Without the synchronous-stall policy the conflict breaks
    lockstep, so the burst runs up to the LD, fails its guard and hands
    the cycle straight to step(): one guard failure is one deopt, not a
    second zero-cycle burst failing the same guard again."""
    fast = run_conflicting_ld(SyncPolicy.HW_BARRIER)
    assert fast.engine_stats.deopt_count == 1


def test_one_bank_conflict_is_replayed_in_the_burst():
    """Under the enhanced D-Xbar policy the same conflict holds the
    served cores until all eight are served: the lockstep burst replays
    its eight cycles itself, and step() runs none."""
    fast = run_conflicting_ld(SyncPolicy.FULL)
    stats = fast.engine_stats
    assert stats.deopt_count == 0
    assert fast.trace.cycles == stats.fast_cycles


# ---------------------------------------------------------------------------
# IRQs landing between lockstep LD/STs
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
    LD R2, [R1]
    ADDI R2, R2, #1
    ST R2, [R1]
    LD R4, [R1 + #4]
    ADD R4, R4, R2
    ST R4, [R1 + #5]
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
    A's wakeup for cycle W+1.  The gate runs that cycle's first phase,
    which applies the wakeup and then delivers an interrupt due then to
    the woken core 0, and the fast path runs the rest of the cycle in
    both cases."""
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
    assert stats.fast_cycles - before == 1
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
    """Seeded loop mixing private-bank and shared-word accesses with ALU
    filler."""
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
            lines.append(f" LD R{reg}, [R1 + #{off}]")
        elif roll < 0.5:
            lines.append(f" ST R{reg}, [R1 + #{off}]")
        elif roll < 0.6:
            lines.append(f" LD R{reg}, [R7 + #{off}]")
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


# ---------------------------------------------------------------------------
# Lockstep LD/ST: the serve kernel, the group path and the
# synchronous-conflict replay
# ---------------------------------------------------------------------------

@st.composite
def bank_requests(draw):
    """One bank's requests for one cycle: distinct cores, a few shared
    addresses, mixed reads and writes, and the bank's priority."""
    ncores = draw(st.integers(1, 8))
    cores = draw(st.lists(st.integers(0, ncores - 1), min_size=1,
                          max_size=ncores, unique=True))
    n = len(cores)
    addresses = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    writes = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    priority = draw(st.integers(0, ncores - 1))
    return priority, cores, addresses, writes, ncores


@given(bank_requests(), st.booleans())
def test_serve_bank_kernel(request, broadcast):
    priority, cores, addresses, writes, ncores = request
    served, after = serve_bank(priority, cores, addresses, writes,
                               broadcast, ncores)

    # the rule, written out literally
    rotation = [(priority + step) % ncores for step in range(ncores)]
    winner = next(core for core in rotation if core in cores)
    win = cores.index(winner)
    assert served[0] == win
    assert after == (winner + 1) % ncores
    if writes[win] or not broadcast:
        expected = [win]
    else:
        expected = [p for p in range(len(cores)) if not writes[p]
                    and addresses[p] == addresses[win]]
    assert sorted(served) == expected
    if len(cores) == 1:
        # a single requester: always served, priority to core + 1
        assert (served, after) == ([0], (cores[0] + 1) % ncores)


# Every running core computes its address from its core id —
# ``base + (id & mask) * x + (id >> shift) * y`` — and then all of them
# execute one LD or ST in lockstep, ``iters`` times, so later
# iterations start from the bank priority the earlier ones left.
# Cores at or past ``running`` halt first.
LOCKSTEP_MEM = """
.entry main
main:
    MFSR R0, COREID
    CMPI R0, #{running}
    LBGE done
    LI R3, #{mask}
    AND R2, R0, R3
    LI R3, #{x}
    MUL R2, R2, R3
    MOV R3, R0
    SRLI R3, #{shift}
    LI R4, #{y}
    MUL R3, R3, R4
    LI R1, #{base}
    ADD R1, R1, R2
    ADD R1, R1, R3
    ADDI R4, R0, #5
    LI R6, #{iters}
loop:
    {op}
    ADD R7, R7, R5
    ADDI R4, R4, #1
    ADDI R6, R6, #-1
    CMPI R6, #0
    LBNE loop
done:
    HALT
"""

#: name -> (mask, x, shift, y); ``"S"`` is a word stride that stays in
#: the bank, ``"B"`` the stride to the next bank
PATTERNS = {
    "one-bank": (7, "S", 3, 0),           # distinct words, one bank
    "shared": (0, 0, 3, 0),               # one word
    "duplicates": (0, 0, 1, "S"),         # pairs share a word, one bank
    "several-banks": (1, "B", 1, "S"),    # two banks, conflicts in each
    "distinct-banks": (7, "B", 3, 0),     # conflict-free
}


@st.composite
def lockstep_mem_cases(draw):
    interleaved = draw(st.booleans())
    pattern = draw(st.sampled_from(sorted(PATTERNS)))
    mask, x, shift, y = PATTERNS[pattern]
    # under interleaving the next word of a bank is 16 words on
    strides = {"S": 16, "B": 1} if interleaved else {"S": 1, "B": BANK_WORDS}
    base = (draw(st.integers(0, 4000)) if interleaved
            else draw(st.integers(0, 8)) * BANK_WORDS
            + draw(st.integers(0, 64)))
    running = draw(st.integers(2, 8))
    source = LOCKSTEP_MEM.format(
        running=running, mask=mask,
        x=strides.get(x, x), shift=shift, y=strides.get(y, y), base=base,
        iters=draw(st.integers(1, 3)),
        op=draw(st.sampled_from(["LD R5, [R1]", "ST R4, [R1]"])))
    config = PlatformConfig(
        num_cores=8, dm_interleaved=interleaved,
        dm_broadcast=draw(st.booleans()),
        policy=draw(st.sampled_from([SyncPolicy.FULL,
                                     SyncPolicy.DXBAR_SYNC_STALL,
                                     SyncPolicy.HW_BARRIER])))
    return pattern, running, source, config


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(lockstep_mem_cases())
def test_lockstep_memory_patterns_differential(case):
    pattern, running, source, config = case
    conflicts = ([], [])

    def setup(machine):
        log = conflicts[not machine.fast_engine]
        machine.dxbar.conflict_listeners.append(
            lambda cycle, losers: log.append(
                (cycle, [astuple(r) for r in losers])))

    fast, slow = run_pair(assemble(source), config, setup,
                          max_cycles=10_000)
    assert_equivalent(fast, slow)
    assert conflicts[0] == conflicts[1]
    if pattern != "several-banks" and config.has_dxbar_sync_stall:
        # every conflict is one bank's and the burst replays it: the
        # halts are the only deopts
        assert fast.engine_stats.deopt_count <= 1 + (running < 8)
