"""Differential proof that the fast engine is cycle-exact.

Every workload here is simulated twice — once with the fast engine
(lockstep bursts, inline lockstep memory cycles, sleep fast-forward)
and once with ``fast_engine=False`` forcing the reference per-cycle
``step()`` — and the two machines must finish in bit-identical state:
every :class:`~repro.platform.trace.ActivityTrace` counter, every
register, flag, PC and mode of every core, every data-memory word, and
the rotating priorities of both crossbars.

Coverage: the three Fig. 3 kernels under eight platform configurations
(the four designs plus a 4-core machine, a broadcast-less ablation and
interleaved DM banking under both headline policies), and on a seeded
ECG input under the five synchronizer configurations and the
interleaved baseline,
interrupt-driven streaming with a periodic timer, scheduled one-shot
interrupts, period-1/period-2 timer edges, an interrupt one core cannot
take, cores halting one by one in divergent bursts, bursts that put
the last running cores to sleep beside idle ones or one cycle before a
timer fire, incremental ``run_cycles`` stepping, and the error paths
(cycle limit, deadlock, an interrupt scheduled in the past).
"""

import random

import pytest

from repro.dsp.ecg import EcgConfig, generate_ecg
from repro.kernels.layout import BANK_WORDS
from repro.kernels.suite import (
    BENCHMARKS,
    DESIGNS,
    build_program,
    golden_outputs,
    run_benchmark,
)
from repro.platform import (
    DeadlockError,
    Machine,
    PlatformConfig,
    SimulationLimitError,
    SyncPolicy,
)

from ..oracles import assert_equivalent

N_SAMPLES = 16


def channels(n_samples, num_cores=8):
    return [[(1000 + 37 * core + 13 * i) % 4096 for i in range(n_samples)]
            for core in range(num_cores)]


def ecg_channels(n_samples, num_cores=8, seed=5):
    """Generated 8-lead ECG: unlike the ramps, its leads split the cores
    at data-dependent branches, so they reach barriers apart."""
    recording = generate_ecg(n_channels=8, n_samples=n_samples,
                             config=EcgConfig(seed=seed))
    return [recording.channel(core) for core in range(num_cores)]


def run_pair(program, config, setup=None, max_cycles=200_000):
    """Simulate one program on both engines; return (fast, slow)."""
    machines = []
    for fast_engine in (True, False):
        machine = Machine(program, config, fast_engine=fast_engine)
        if setup is not None:
            setup(machine)
        machine.run(max_cycles=max_cycles)
        machines.append(machine)
    return machines


# ---------------------------------------------------------------------------
# Fig. 3 kernels across platform configurations
# ---------------------------------------------------------------------------

# name -> (config, programs built with sync points?)
CONFIGS = {
    name: (design.platform_config(), design.sync_enabled)
    for name, design in DESIGNS.items()
}
CONFIGS["with-sync-4-cores"] = (
    PlatformConfig(num_cores=4, policy=SyncPolicy.FULL), True)
CONFIGS["with-sync-no-broadcast"] = (
    PlatformConfig(num_cores=8, policy=SyncPolicy.FULL,
                   im_broadcast=False, dm_broadcast=False), True)
CONFIGS["with-sync-interleaved"] = (
    PlatformConfig(policy=SyncPolicy.FULL, dm_interleaved=True), True)
CONFIGS["without-sync-interleaved"] = (
    PlatformConfig(policy=SyncPolicy.NONE, dm_interleaved=True), False)


#: the configurations run on ECG too: every one whose programs carry
#: sync points, and the baseline on interleaved DM
ECG_CONFIGS = ("barrier-only", "with-sync", "with-sync-4-cores",
               "with-sync-no-broadcast", "with-sync-interleaved",
               "without-sync-interleaved")
ECG_SAMPLES = 8
#: the most cycles step() may still run on ECG with IM broadcast: the
#: bursts replay every barrier exchange they can prove, divergent ones
#: included, and run HALT themselves; the gate runs every cycle's first
#: phase (wakeups, timer fires, interrupt delivery)
ECG_STEP_CEILING = 5
#: the same ceiling under interleaved DM, per kernel.  SPMD private
#: buffers put lockstep cores in one bank at different words there; the
#: lockstep burst replays those synchronous one-bank conflicts, while
#: conflicts spanning several banks and group conflicts inside divergent
#: bursts still go to step()
INTERLEAVED_STEP_CEILING = {"MRPFLTR": 354, "MRPDLN": 302, "SQRT32": 69}
#: the ceiling for the baseline policy under interleaved DM, per kernel:
#: its conflicts let the served cores run on while the losers retry, a
#: case no burst replays, so step() still runs most of its conflicts
BASELINE_INTERLEAVED_STEP_CEILING = {"MRPFLTR": 18571, "MRPDLN": 6848,
                                     "SQRT32": 349}


@pytest.mark.parametrize("config_name,ecg", [
    *(pytest.param(name, False, id=name) for name in sorted(CONFIGS)),
    *(pytest.param(name, True, id=f"{name}-ecg") for name in ECG_CONFIGS),
])
@pytest.mark.parametrize("bench", sorted(BENCHMARKS))
def test_kernel_differential(bench, config_name, ecg):
    config, sync_enabled = CONFIGS[config_name]
    program = build_program(bench, sync_enabled)
    n_samples = ECG_SAMPLES if ecg else N_SAMPLES
    data = (ecg_channels if ecg else channels)(n_samples, config.num_cores)

    def setup(machine):
        for core, channel in enumerate(data):
            machine.dm.load(core * BANK_WORDS, channel)
        n_address = program.symbols.get("g_n_samples")
        if n_address is None:
            from repro.kernels.sqrt32 import N_SAMPLES_ADDRESS
            n_address = N_SAMPLES_ADDRESS
        machine.dm.write(n_address, n_samples)

    fast, slow = run_pair(program, config, setup, max_cycles=2_000_000)
    assert_equivalent(fast, slow)
    if ecg and config.im_broadcast:
        step_cycles = fast.trace.cycles - fast.engine_stats.fast_cycles
        if not config.dm_interleaved:
            ceiling = ECG_STEP_CEILING
        elif sync_enabled:
            ceiling = INTERLEAVED_STEP_CEILING[bench]
        else:
            ceiling = BASELINE_INTERLEAVED_STEP_CEILING[bench]
        assert step_cycles <= ceiling


@pytest.mark.parametrize("design_name", sorted(DESIGNS))
def test_kernel_outputs_stay_golden(design_name):
    """The fast engine must not just match step() — both must be right."""
    data = channels(N_SAMPLES)
    run = run_benchmark("MRPFLTR", DESIGNS[design_name], data)
    assert run.outputs == golden_outputs("MRPFLTR", data)


# ---------------------------------------------------------------------------
# Timers, interrupts, sleep fast-forward
# ---------------------------------------------------------------------------

def streaming_pair(n_samples=24, period=120, **timer_kwargs):
    from repro.analysis.perf import STREAMING_PROGRAM, synthetic_channels
    from repro.isa.assembler import assemble

    program = assemble(STREAMING_PROGRAM.format(n_samples=n_samples))

    def setup(machine):
        for core, channel in enumerate(synthetic_channels(n_samples)):
            machine.dm.load(core * BANK_WORDS, channel)
        machine.add_timer(period, **timer_kwargs)

    return run_pair(program, PlatformConfig(num_cores=8), setup)


def assert_fast_throughout(machine):
    """step() ran at most the final quiet cycle, and no burst deopted."""
    stats = machine.engine_stats
    assert machine.trace.cycles - stats.fast_cycles <= 1
    assert stats.deopt_count == 0


def test_streaming_timer_differential():
    """Duty-cycled EMA node: ISR + SLEEP + timer = sleep fast-forward.
    Timer fires, interrupt delivery, SLEEP and HALT stay on the fast
    path too."""
    fast, slow = streaming_pair(offset=120)
    assert_equivalent(fast, slow)
    assert fast.trace.core_sleep_cycles > 0
    assert_fast_throughout(fast)


# counts interrupts in the ISR and halts from there, so the main loop
# never reads flags an ISR could clobber and period-1 timers cannot
# livelock the count check
COUNTING_ISR = """
.entry main
isr:
    INC R1                  ; interrupts taken
    CMP R1, R3
    LBGE done
    RETI
done:
    HALT
main:
    LI R2, #isr
    MTSR IVEC, R2
    CLR R1
    LI R3, #{expected}
    EI
loop:
    SLEEP
    JMP loop
"""


def counting_pair(expected, setup_irqs, max_cycles=10_000):
    from repro.isa.assembler import assemble

    program = assemble(COUNTING_ISR.format(expected=expected))
    return run_pair(program, PlatformConfig(num_cores=8), setup_irqs,
                    max_cycles=max_cycles)


@pytest.mark.parametrize("period,offset", [(1, 0), (1, 1), (2, 0), (2, 5)])
def test_timer_edge_periods(period, offset):
    """Back-to-back timer fires leave no room to fast-forward — still
    exact.  The ISR runs with interrupts disabled while the next fire is
    already pending, so these cycles stay with step() by design."""
    fast, slow = counting_pair(
        10, lambda machine: machine.add_timer(period, offset=offset))
    assert_equivalent(fast, slow)
    assert all(core.regs[1] == 10 for core in fast.cores)


def test_spaced_timer_stays_on_the_fast_path():
    """With room between fires, every fire, delivery, SLEEP and the
    ISR's HALT runs on the fast path."""
    fast, slow = counting_pair(
        10, lambda machine: machine.add_timer(50, offset=50))
    assert_equivalent(fast, slow)
    assert all(core.regs[1] == 10 for core in fast.cores)
    assert_fast_throughout(fast)


# core 7 cannot take the timer's first interrupt: it sleeps checked out
# at a barrier the others release only after their work, or it never
# enables interrupts
BLOCKED_IRQ = """
.entry main
isr:
    INC R1                  ; interrupts taken
    RETI
main:
    LI R2, #isr
    MTSR IVEC, R2
    LI R2, #30720           ; DEFAULT_SYNC_BASE
    MTSR RSYNC, R2
    CLR R1
    LI R3, #40
    MFSR R0, COREID
    SINC #0
    CMPI R0, #7
    LBNE work
    {core7}
work:
    EI
spin:
    DEC R3
    LBNE spin
    SDEC #0
    HALT
"""


@pytest.mark.parametrize("core7", ["EI\n    SDEC #0\n    HALT", "JMP spin"],
                         ids=["barrier-sleeper", "interrupts-disabled"])
def test_interrupt_a_core_cannot_take(core7):
    """The gate runs the fire cycle's first phase, which delivers the
    interrupt to cores 0-6 and leaves core 7's pending, so it hands the
    cycle to step(), whose own first phase must then change nothing."""
    from repro.isa.assembler import assemble

    program = assemble(BLOCKED_IRQ.format(core7=core7))
    fast, slow = (Machine(program, PlatformConfig(num_cores=8),
                          fast_engine=fast_engine)
                  for fast_engine in (True, False))
    for machine in (fast, slow):
        machine.add_timer(60, offset=60)
    fast.run_cycles(59)
    before = fast.engine_stats.fast_cycles
    fast.run_cycles(1)
    assert fast.engine_stats.fast_cycles == before   # step() ran cycle 60
    assert fast._pending_irq == [False] * 7 + [True]
    for machine in (fast, slow):
        machine.run(max_cycles=10_000)
    assert_equivalent(fast, slow)
    assert [core.regs[1] for core in fast.cores][:7] == [2] * 7


# every core spins a different number of times, so the cores halt one by
# one, each inside a divergent burst
STAGGERED_HALT = """
.entry main
main:
    MFSR R0, COREID
    LI R3, #3
    ADD R3, R3, R0          ; core k spins 3 + k times
spin:
    DEC R3
    LBNE spin
    HALT
"""

# cores 4-7 fetch HALT in the write cycle of cores 0-3's check-in
HALT_BESIDE_A_CHECKIN = """
.entry main
main:
    LI R1, #30720           ; DEFAULT_SYNC_BASE
    MTSR RSYNC, R1
    MFSR R0, COREID
    CMPI R0, #4
    BLT group_a
    HALT
group_a:
    SINC #0
    SDEC #0
    HALT
"""


@pytest.mark.parametrize("source,config", [
    (STAGGERED_HALT, PlatformConfig(num_cores=8)),
    (STAGGERED_HALT, PlatformConfig(num_cores=8, policy=SyncPolicy.FULL,
                                    im_broadcast=False,
                                    dm_broadcast=False)),
    (HALT_BESIDE_A_CHECKIN, PlatformConfig(num_cores=8)),
], ids=["staggered", "staggered-no-broadcast", "beside-a-checkin"])
def test_divergent_halts_stay_on_the_fast_path(source, config):
    """A HALT ends its burst cleanly, credited like any retired
    instruction, instead of deopting to step()."""
    from repro.isa.assembler import assemble

    fast, slow = run_pair(assemble(source), config, max_cycles=10_000)
    assert_equivalent(fast, slow)
    assert fast.engine_stats.divergent_bursts > 0
    assert_fast_throughout(fast)


def engine_counts(machine) -> dict:
    """The regime counters of a fast-engine run."""
    stats = machine.engine_stats.as_dict()
    return {key: stats[key] for key in (
        "lockstep_bursts", "lockstep_cycles", "divergent_bursts",
        "divergent_cycles", "sleep_skips", "sleep_cycles", "deopt_count",
        "sync_fused_rmws", "fast_cycles")}


# Cores 0-3 (the only timer targets) sleep between interrupts, cores 4-5
# spin and then sleep checked out at a barrier, cores 6-7 spin and then
# halt.  The longer spin decides which group stops last before the first
# fire, while the others are already idle; after that, every ISR burst's
# SLEEP stops the last running cores beside halted and barrier-sleeping
# ones.
STOP_BESIDE_IDLE = """
.entry main
isr:
    INC R1                  ; interrupts taken
    RETI
main:
    LI R2, #isr
    MTSR IVEC, R2
    LI R2, #30720           ; DEFAULT_SYNC_BASE
    MTSR RSYNC, R2
    CLR R1
    MFSR R0, COREID
    CMPI R0, #6
    LBGE halter
    SINC #0
    CMPI R0, #4
    LBLT sleeper
    LI R3, #{barrier_spin}
barrier_spin:
    DEC R3
    LBNE barrier_spin
    SDEC #0                 ; cores 4-5 sleep checked out at the barrier
    JMP done
halter:
    LI R3, #{halt_spin}
halt_spin:
    DEC R3
    LBNE halt_spin
    JMP done
sleeper:
    EI
wait:
    SLEEP
    CMPI R1, #3
    LBLT wait
    SDEC #0                 ; the last check-outs release cores 4-5
done:
    HALT
"""


@pytest.mark.parametrize("barrier_spin,halt_spin,counts", [
    (20, 2, {"lockstep_bursts": 6, "lockstep_cycles": 84,
             "divergent_bursts": 3, "divergent_cycles": 24,
             "sleep_skips": 3, "sleep_cycles": 200, "deopt_count": 0,
             "sync_fused_rmws": 3, "fast_cycles": 308}),
    (2, 20, {"lockstep_bursts": 6, "lockstep_cycles": 84,
             "divergent_bursts": 3, "divergent_cycles": 22,
             "sleep_skips": 3, "sleep_cycles": 201, "deopt_count": 0,
             "sync_fused_rmws": 3, "fast_cycles": 307}),
], ids=["check-out-last", "halt-last"])
def test_last_running_cores_stop_beside_idle_ones(barrier_spin, halt_spin,
                                                  counts):
    """A burst whose last cycle stops every running core (a check-out,
    a HALT or a SLEEP) takes the sleep skip in the same gate pass, from
    the pass's census plus the cores that stopped: the halted, sleeping
    and barrier-wait counters stay bit-exact, and each skip counts once
    with all its cycles (the pinned regime counters)."""
    from repro.isa.assembler import assemble

    def setup(machine):
        machine.add_timer(100, cores=range(4), offset=100)

    source = STOP_BESIDE_IDLE.format(barrier_spin=barrier_spin,
                                     halt_spin=halt_spin)
    fast, slow = run_pair(assemble(source), PlatformConfig(num_cores=8),
                          setup, max_cycles=10_000)
    assert_equivalent(fast, slow)
    assert [core.regs[1] for core in fast.cores] == [3] * 4 + [0] * 4
    assert fast.trace.sync_wait_cycles > 0
    assert fast.trace.core_halted_cycles > 0
    assert_fast_throughout(fast)
    assert engine_counts(fast) == counts


def test_sleep_one_cycle_before_the_timer_fires():
    """The streaming node's prologue and each ISR round run 14 cycles to
    their SLEEP, so with the first fire at cycle 15 and a period of 14
    every burst ends one cycle before a fire: no skip is taken, and the
    next pass delivers the interrupt."""
    fast, slow = streaming_pair(n_samples=4, period=14, offset=15)
    assert_equivalent(fast, slow)
    assert fast.trace.core_sleep_cycles == 0
    assert_fast_throughout(fast)
    assert engine_counts(fast) == {
        "lockstep_bursts": 5, "lockstep_cycles": 69,
        "divergent_bursts": 0, "divergent_cycles": 0,
        "sleep_skips": 0, "sleep_cycles": 0, "deopt_count": 0,
        "sync_fused_rmws": 0, "fast_cycles": 69}


def test_scheduled_interrupt_differential():
    """One-shot IRQs land mid-burst and mid-sleep on both engines alike."""
    def setup(machine):
        machine.schedule_interrupt(7, 0)      # during the startup burst
        machine.schedule_interrupt(40, 0)
        machine.schedule_interrupt(41, 0)     # back-to-back delivery
        for core in range(1, machine.config.num_cores):
            machine.schedule_interrupt(20, core)
            machine.schedule_interrupt(30, core)
            machine.schedule_interrupt(55, core)

    fast, slow = counting_pair(3, setup)
    assert_equivalent(fast, slow)
    assert all(core.regs[1] == 3 for core in fast.cores)


# ---------------------------------------------------------------------------
# Run control: incremental stepping and error paths
# ---------------------------------------------------------------------------

def test_run_cycles_incremental_differential():
    """Chunked run_cycles on the fast engine == one reference run."""
    program = build_program("MRPDLN", True)
    config = DESIGNS["with-sync"].platform_config()
    data = channels(N_SAMPLES)

    def setup(machine):
        for core, channel in enumerate(data):
            machine.dm.load(core * BANK_WORDS, channel)
        machine.dm.write(program.symbols["g_n_samples"], N_SAMPLES)

    fast = Machine(program, config, fast_engine=True)
    slow = Machine(program, config, fast_engine=False)
    setup(fast)
    setup(slow)
    slow.run(max_cycles=2_000_000)
    while not fast.all_halted:
        before = fast.trace.cycles
        fast.run_cycles(997)
        if fast.trace.cycles == before:
            break
        # chunks stop exactly on the requested boundary until completion
        assert (fast.all_halted
                or fast.trace.cycles == before + 997)
    assert_equivalent(fast, slow)


def test_simulation_limit_equivalence():
    spin = Machine.from_assembly("loop:\n JMP #loop\n",
                                 PlatformConfig(num_cores=2))
    spin_slow = Machine.from_assembly("loop:\n JMP #loop\n",
                                      PlatformConfig(num_cores=2),
                                      fast_engine=False)
    with pytest.raises(SimulationLimitError):
        spin.run(max_cycles=300)
    with pytest.raises(SimulationLimitError):
        spin_slow.run(max_cycles=300)
    assert spin.trace.cycles == spin_slow.trace.cycles == 300
    # run_cycles never raises on the budget; both engines stop on it
    for machine in (Machine.from_assembly("loop:\n JMP #loop\n"),
                    Machine.from_assembly("loop:\n JMP #loop\n",
                                          fast_engine=False)):
        machine.run_cycles(123)
        assert machine.trace.cycles == 123


def test_deadlock_equivalence():
    source = " SLEEP\n HALT\n"     # sleeps forever: no IRQ source exists
    for fast_engine in (True, False):
        machine = Machine.from_assembly(
            source, PlatformConfig(num_cores=2), fast_engine=fast_engine)
        with pytest.raises(DeadlockError):
            machine.run(max_cycles=1_000)


@pytest.mark.parametrize("fast_engine", [True, False])
def test_interrupt_scheduled_in_the_past_is_rejected(fast_engine):
    """An interrupt for a cycle already run would never fire; accepting
    it kept the run from detecting a deadlock."""
    machine = Machine.from_assembly(" NOP\n" * 8 + " SLEEP\n HALT\n",
                                    PlatformConfig(num_cores=2),
                                    fast_engine=fast_engine)
    machine.run_cycles(5)
    for cycle in (3, 5):
        with pytest.raises(ValueError, match="not after"):
            machine.schedule_interrupt(cycle, 0)
    with pytest.raises(ValueError, match="no core 2"):
        machine.schedule_interrupt(6, 2)
    with pytest.raises(DeadlockError):
        machine.run(max_cycles=20_000)
    assert machine.trace.cycles < 20


def test_probes_force_reference_stepping():
    """An attached probe must see every single cycle."""
    program = build_program("SQRT32", True)
    config = DESIGNS["with-sync"].platform_config()
    data = channels(N_SAMPLES)

    class CycleCounter:
        def __init__(self):
            self.samples = 0
            self.finished = 0

        def sample(self, machine, active):
            self.samples += 1

        def finish(self, machine):
            self.finished += 1

    def setup(machine):
        for core, channel in enumerate(data):
            machine.dm.load(core * BANK_WORDS, channel)
        from repro.kernels.sqrt32 import N_SAMPLES_ADDRESS
        machine.dm.write(N_SAMPLES_ADDRESS, N_SAMPLES)

    probed = Machine(program, config, fast_engine=True)
    counter = CycleCounter()
    probed.attach_probe(counter)
    setup(probed)
    probed.run(max_cycles=2_000_000)
    assert counter.samples == probed.trace.cycles
    assert counter.finished == 1

    bare = Machine(program, config, fast_engine=True)
    setup(bare)
    bare.run(max_cycles=2_000_000)
    assert_equivalent(probed, bare)

# ---------------------------------------------------------------------------
# Superblock fusion: randomized programs, IRQs mid-block, engagement
# ---------------------------------------------------------------------------

_SEQ_OPS = [
    "ADD R{a}, R{b}, R{c}", "SUB R{a}, R{b}, R{c}", "XOR R{a}, R{b}, R{c}",
    "AND R{a}, R{b}, R{c}", "OR R{a}, R{b}, R{c}", "MUL R{a}, R{b}, R{c}",
    "ADDI R{a}, R{b}, #{imm}", "MOV R{a}, R{b}",
    "SLLI R{a}, #{sh}", "SRLI R{a}, #{sh}",
]


def random_fusable_program(seed, *, n_blocks=4, iters=6):
    """A seeded random kernel exercising every fast-path regime.

    Straight-line runs (fused blocks) separated by private-bank loads
    and stores, data-dependent forward branches that jump into the
    *middle* of would-be blocks (per-core, since the loaded data
    differs per core — forcing divergence), all inside a counted loop
    that always terminates.
    """
    rng = random.Random(seed)
    lines = [".entry main", "main:",
             " MFSR R6, COREID",
             " LI R4, #2048",
             " MUL R6, R6, R4        ; R6 = private bank base",
             f" LI R5, #{iters}",
             "loop:"]
    for b in range(n_blocks):
        for _ in range(rng.randint(3, 8)):
            lines.append(" " + rng.choice(_SEQ_OPS).format(
                a=rng.randint(0, 3), b=rng.randint(0, 3),
                c=rng.randint(0, 3), imm=rng.randint(-16, 15),
                sh=rng.randint(0, 15)))
        if rng.random() < 0.7:
            reg = rng.randint(0, 3)
            off = rng.randint(0, 31)
            if rng.random() < 0.5:
                lines.append(f" ST R{reg}, [R6 + #{off}]")
            else:
                lines.append(f" LD R{reg}, [R6 + #{off}]")
        if rng.random() < 0.6:
            cond = rng.choice(["BEQ", "BNE", "BLT", "BGE"])
            lines.append(f" CMPI R{rng.randint(0, 3)}, #{rng.randint(0, 4)}")
            lines.append(f" {cond} skip_{b}")
            lines.append(" ADDI R0, R0, #1")
            lines.append(" ADDI R1, R1, #1")
            lines.append(f"skip_{b}:")
    lines += [" ADDI R5, R5, #-1",
              " CMPI R5, #0",
              " LBNE loop",
              " HALT"]
    return "\n".join(lines) + "\n"


RANDOM_CONFIGS = {
    "broadcast": PlatformConfig(num_cores=8),
    "no-broadcast": PlatformConfig(num_cores=8, im_broadcast=False,
                                   dm_broadcast=False),
    "4-core": PlatformConfig(num_cores=4),
    "interleaved": PlatformConfig(num_cores=8, dm_interleaved=True),
}


@pytest.mark.parametrize("config_name", sorted(RANDOM_CONFIGS))
@pytest.mark.parametrize("seed", range(8))
def test_random_program_differential(seed, config_name):
    from repro.isa.assembler import assemble

    config = RANDOM_CONFIGS[config_name]
    program = assemble(random_fusable_program(seed))
    data = channels(64, config.num_cores)

    def setup(machine):
        for core, channel in enumerate(data):
            machine.dm.load(core * BANK_WORDS, channel)

    fast, slow = run_pair(program, config, setup, max_cycles=100_000)
    assert_equivalent(fast, slow)
    assert fast.engine_stats.engaged


# a long straight-line run the engine would fuse — interrupts must land
# inside it with cycle-exact delivery on both engines
IRQ_MID_BLOCK = """
.entry main
isr:
    INC R1                  ; interrupts taken
    CMP R1, R3
    LBGE done
    RETI
done:
    HALT
main:
    LI R2, #isr
    MTSR IVEC, R2
    CLR R1
    LI R3, #{expected}
    EI
loop:
{body}
    JMP loop
"""


@pytest.mark.parametrize("cycles", [
    (37, 38, 120),           # adjacent pair pends one IRQ inside the ISR
    (100, 200, 300),         # spread out
    (7, 61, 62),             # during the startup burst + adjacent pair
])
def test_irq_lands_inside_would_be_block(cycles):
    from repro.isa.assembler import assemble

    body = "\n".join(f"    ADDI R{n % 2 + 4}, R{n % 2 + 4}, #{n}"
                     for n in range(20))
    program = assemble(IRQ_MID_BLOCK.format(expected=len(cycles), body=body))

    def setup(machine):
        for cycle in cycles:
            for core in range(machine.config.num_cores):
                machine.schedule_interrupt(cycle, core)

    fast, slow = run_pair(program, PlatformConfig(num_cores=8), setup,
                          max_cycles=50_000)
    assert_equivalent(fast, slow)
    assert all(core.regs[1] == len(cycles) for core in fast.cores)


def test_superblocks_engage_on_kernels():
    """MRPFLTR must actually exercise the fused path, not just match."""
    program = build_program("MRPFLTR", True)
    config = DESIGNS["with-sync"].platform_config()
    data = channels(N_SAMPLES)

    def setup(machine):
        for core, channel in enumerate(data):
            machine.dm.load(core * BANK_WORDS, channel)
        machine.dm.write(program.symbols["g_n_samples"], N_SAMPLES)

    fast, slow = run_pair(program, config, setup, max_cycles=2_000_000)
    assert_equivalent(fast, slow)
    stats = fast.engine_stats
    assert stats.fused_blocks > 0
    assert stats.fused_cycles > 0
    assert stats.fused_cycles <= stats.lockstep_cycles
    assert stats.as_dict()["fused_blocks"] == stats.fused_blocks


def test_single_core_fused_engagement():
    """Fusion also rides the single-core (divergent-regime) burst."""
    source = (".entry main\nmain:\n LI R5, #200\nloop:\n"
              + " ADDI R0, R0, #1\n" * 6
              + " ADDI R5, R5, #-1\n CMPI R5, #0\n LBNE loop\n HALT\n")
    machines = []
    for fast_engine in (True, False):
        machine = Machine.from_assembly(source, PlatformConfig(num_cores=1),
                                        fast_engine=fast_engine)
        machine.run(max_cycles=10_000)
        machines.append(machine)
    assert_equivalent(*machines)
    assert machines[0].engine_stats.fused_cycles > 0


def test_single_core_block_rotates_every_bank_it_spans():
    """A fused block longer than an I-Xbar bank fetches from every bank
    in its span, and without broadcast each fetch rotates that bank's
    priority — the middle banks included."""
    source = (".entry main\nmain:\n MFSR R1, COREID\n CMPI R1, #0\n"
              " LBNE done\n" + " ADDI R0, R0, #1\n" * 30
              + "done:\n HALT\n")
    config = PlatformConfig(num_cores=2, im_broadcast=False,
                            im_bank_words=4, im_banks=16)
    machines = []
    for fast_engine in (True, False):
        machine = Machine.from_assembly(source, config,
                                        fast_engine=fast_engine)
        machine.run(max_cycles=1_000)
        machines.append(machine)
    assert_equivalent(*machines)
    # the fused run spans more than two 4-word banks
    assert machines[0].engine_stats.fused_cycles > 8


def test_divergent_burst_engagement():
    """Per-core loop lengths force divergence; the burst must serve it."""
    source = (".entry main\nmain:\n MFSR R0, COREID\n ADDI R0, R0, #5\n"
              "spin:\n ADDI R0, R0, #-1\n CMPI R0, #0\n LBNE spin\n"
              " ADDI R1, R1, #1\n HALT\n")
    machines = []
    for fast_engine in (True, False):
        machine = Machine.from_assembly(source, PlatformConfig(num_cores=8),
                                        fast_engine=fast_engine)
        machine.run(max_cycles=10_000)
        machines.append(machine)
    assert_equivalent(*machines)
    assert machines[0].engine_stats.divergent_bursts > 0


@pytest.mark.parametrize("interleaved", [False, True])
def test_divergent_lone_winner_memory(interleaved):
    """Cores offset by a per-core delay loop stay apart; a lone winner's
    private LD/ST always wins its D-Xbar bank, and the burst must rotate
    that bank's priority under either bank mapping."""
    source = (".entry main\nmain:\n MFSR R0, COREID\n LI R4, #2048\n"
              " MUL R6, R0, R4\n ADDI R0, R0, #1\n"
              "delay:\n ADDI R0, R0, #-1\n CMPI R0, #0\n LBNE delay\n"
              " LI R5, #20\n"
              "loop:\n LD R1, [R6 + #3]\n ADDI R1, R1, #1\n"
              " ST R1, [R6 + #3]\n ADDI R5, R5, #-1\n CMPI R5, #0\n"
              " LBNE loop\n HALT\n")
    config = PlatformConfig(num_cores=8, dm_interleaved=interleaved)
    machines = []
    for fast_engine in (True, False):
        machine = Machine.from_assembly(source, config,
                                        fast_engine=fast_engine)
        machine.run(max_cycles=10_000)
        machines.append(machine)
    assert_equivalent(*machines)
    assert machines[0].engine_stats.divergent_cycles > 0
