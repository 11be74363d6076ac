"""Fast execution engine: lockstep bursts and event-driven sleep skips.

:meth:`Machine.step` is the *reference* cycle model — it re-arbitrates
every structure every cycle and is what the counters are defined against.
This module is the performance path layered on top of it.  It exploits the
two regimes that dominate the paper's workloads:

**Lockstep bursts** — on the improved design the cores spend most of their
time executing the *same* instruction at the *same* PC (the property the
I-Xbar broadcast and the synchronizer exist to create).  While every
running core shares one PC, no request is outstanding, and nothing is
pending in the synchronizer, a whole cycle collapses to "run one
predecoded closure once per running core" — or, for a lockstep LD/ST
whose requests provably win D-Xbar arbitration (distinct banks, or one
broadcast read), one inline pass over the banks.  A lockstep LD/ST whose
requests conflict in one bank is replayed cycle by cycle under the
enhanced D-Xbar policy, which holds the served cores until the whole
group is served.  The engine executes the entire run of such
instructions in a tight loop and credits the activity counters in one
batched update — the software mirror of a broadcast fetch serving all
cores from a single IM bank read.  Every D-Xbar serve goes through the
crossbar's own rule, :func:`~repro.platform.dxbar.serve_bank`.

**Superblock fusion** — inside a burst the engine still pays one closure
call per instruction per core.  :mod:`repro.cpu.blocks` compiles every
straight-line run (ending at jump/branch boundaries and at every LD/ST,
which the group path above serves) into one fused function, so a burst
advances whole blocks at a time: one fused call per running core covers
the block's cycles, with the activity counters bulk-credited for the
run.  A fused call is only made when the burst has already proven that
many uninterrupted cycles (PC uniform, no pending IRQ/sync/memory work,
horizon clearance); any guard failure **deoptimizes** to the reference
``step()`` for that cycle, counted in :attr:`EngineStats.deopt_count`.

**Divergent bursts** — when running cores sit at *different* PCs (or IM
broadcast is off), the reference serializes fetches through per-bank
rotating arbitration: one winner group per cycle, everyone else stalls.
Every served cycle sets the bank's priority to ``winner + 1`` and the
running set cannot change inside a burst, so the winners are the running
cores in core-id order, cycling from the bank's priority.
:meth:`FastEngine._divergent_burst` walks that order, keeps the broadcast
groups as a PC -> cores map updated only for the cores that moved,
serves a lone winner's LD/ST inline (a single requester always wins its
D-Xbar bank) and credits the conflict, histogram and retire counters
once per burst.  The baseline design runs mostly in this regime, and so
does every data-dependent region of the synchronized one.

**Merged-barrier replay** — a served group's ``SINC``/``SDEC``
collapses, in the reference, to one merged two-cycle checkpoint
read-modify-write that touches nothing but the checkpoint word.  Both
bursts replay both cycles in place through one helper
(:meth:`FastEngine._checkpoint_rmw`): the synchronizer's own
:func:`~repro.platform.synchronizer.checkpoint_rmw` arithmetic, every
trace counter, and the per-checkpoint statistics and listener call
through ``Synchronizer.note_completion``, instead of handing the window
to ``step()`` — the dominant leftover cost in barrier-dense kernels.  In
a divergent burst the group sits out the write cycle's fetch, which the
other running cores arbitrate for, and the helper serves that fetch
too (or declines the whole window).  A checkout that leaves the cores
asleep, or a release that wakes sleepers, ends the burst; the gate
applies the latched wakeups with the rest of the next cycle's first
phase.

**Sleep fast-forward** — duty-cycled streaming nodes sleep for hundreds of
cycles between ADC interrupts.  When no core is running and only a timer
or a scheduled interrupt can change machine state, the engine jumps
``trace.cycles`` straight to the cycle before the next event and
bulk-credits the sleep/halt counters, instead of ticking the idle
platform one cycle at a time.  The gate then runs the event's cycle,
whose first phase delivers the interrupt that ends the sleep.

**One gate** — the run loop calls :meth:`FastEngine._advance` before
every reference cycle, and every regime above is entered through it.
Each pass first runs the next cycle's first phase,
:meth:`Machine._begin_cycle` (latched wakeups, timer fires and scheduled
interrupts, interrupt delivery), which consumes its inputs, so the
``step()`` that may then run the cycle repeats it harmlessly.  The gate
hands the cycle to ``step()`` while anything is in flight beyond the
cores: an outstanding memory or synchronizer request, or an interrupt
that stays pending (a core with interrupts disabled, asleep at a
barrier or halted).  Otherwise it scans the cores once for the running
set and the idle census, and hands both and the horizon, the cycle
before the following timer fire or scheduled interrupt, to the regime
the running set calls for.  Both bursts run ``SLEEP`` and ``HALT`` as
their last cycle.

All paths are cycle-exact: every counter in the
:class:`~repro.platform.trace.ActivityTrace`, every register and every
memory word ends up bit-for-bit identical to pure ``step()`` stepping
(guarded by ``tests/platform/test_engine_differential.py``).  Probes
force pure ``step()`` stepping, and a burst whose guard fails hands
that cycle straight back.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cpu.executor import checkpoint_address
from ..cpu.predecode import BURSTABLE, KIND_JUMP, KIND_MEM, KIND_SEQ, \
    KIND_STOP, KIND_SYNC
from ..cpu.state import CoreMode
from ..isa.spec import Opcode, SysOp
from .dxbar import DmRequest, serve_bank
from .synchronizer import checkpoint_rmw

INFINITY = float("inf")


def _changes_mode(ins) -> bool:
    """True for ``SLEEP`` and ``HALT``: the ``KIND_STOP`` forms that only
    change the core's mode, which a burst runs as its last cycle."""
    return ins.op is Opcode.SYS and ins.sub in (SysOp.SLEEP, SysOp.HALT)


def _credit_winners(retired: list, running: list, first: int,
                    served: int) -> None:
    """Credit ``served`` divergent cycles won in the fixed order:
    winner k is ``running[(first + k) % len(running)]``."""
    n = len(running)
    rounds, rest = divmod(served, n)
    for j, core in enumerate(running):
        retired[core.coreid] += rounds + ((j - first) % n < rest)


class DeadlockError(RuntimeError):
    """All awake work is exhausted but some cores still sleep."""


class SimulationLimitError(RuntimeError):
    """The configured cycle budget was exceeded."""


@dataclass(slots=True)
class EngineStats:
    """Fast-path engagement counters (one update per burst/skip, so the
    bookkeeping adds no per-cycle cost).  The telemetry layer reads these
    to prove the fast engine stayed engaged during a traced run.  Every
    cycle they do not cover ran in ``step()`` (``cycles - fast_cycles``),
    and the engine's gate was tried before each such cycle: a run with
    nothing in flight and no interrupt left pending leaves ``step()``
    only its final quiet cycle."""

    #: lockstep burst engagements, including the ones that start at a
    #: checkpoint instruction (the burst replays every lockstep
    #: ``SINC``/``SDEC``, so a barrier is part of a burst, not a path
    #: of its own)
    lockstep_bursts: int = 0
    lockstep_cycles: int = 0
    divergent_bursts: int = 0
    divergent_cycles: int = 0
    sleep_skips: int = 0
    sleep_cycles: int = 0
    #: fused superblock executions (one per block per burst engagement,
    #: regardless of how many cores ran the fused call)
    fused_blocks: int = 0
    #: cycles covered by fused blocks (a subset of ``lockstep_cycles``)
    fused_cycles: int = 0
    #: bursts abandoned by a guard check — an encoding outside the ISA
    #: table, a memory pattern that may lose D-Xbar arbitration and that
    #: the conflict replay declines, a divergent checkpoint RMW the
    #: replay declines, an off-image or multi-bank PC.  The abandoned
    #: cycle is replayed by the reference ``step()``, which the burst
    #: hands it to at once; a guard that fails again after that cycle
    #: counts again.  Burst endings that need no fallback (horizon,
    #: convergence, divergence, a served group leaving its IM bank, a
    #: ``SLEEP``/``HALT``, a checkpoint RMW that sleeps or wakes cores,
    #: a lockstep one that ``step()`` must run) are not deopts.
    deopt_count: int = 0
    #: block-termination census: every fused-block execution credits
    #: the reason its block stopped fusing further instructions —
    #: an LD/ST (``term_mem``), a synchronizer op (``term_sync``), a
    #: mode change / unfusable instruction / end of image
    #: (``term_stop``), a control-flow terminator (``term_diverge``),
    #: or the MAX_BLOCK cap (``term_cap``).
    term_mem: int = 0
    term_sync: int = 0
    term_stop: int = 0
    term_diverge: int = 0
    term_cap: int = 0
    #: always 0: no block is predicated.  Kept in :meth:`as_dict` only
    #: because the repo benchmark's tracer reads both keys for its
    #: ``platform.engine.pred_abort_frac`` metric.
    pred_blocks: int = 0
    pred_aborts: int = 0
    #: merged SINC/SDEC read-modify-writes replayed (two cycles each)
    #: by the lockstep or divergent burst, or the batch engine, instead
    #: of the reference ``step()``
    sync_fused_rmws: int = 0
    #: size of the largest array-of-machines batch this run was part of
    #: (:func:`repro.cpu.vec.run_batch`); 0 when never batched
    batched_runs: int = 0
    #: widest runs x cores lane count this run executed vectorized in
    vector_width: int = 0
    #: vectorized block executions credited to this run
    vector_blocks: int = 0
    #: cycles advanced by the vectorized batch engine (disjoint from
    #: ``lockstep_cycles`` — a cycle is counted where it was executed)
    vector_cycles: int = 0
    #: times this run peeled out of a batch early (guard boundary hit
    #: before the natural end of program)
    peel_count: int = 0

    @property
    def fast_cycles(self) -> int:
        """Cycles consumed by the fast paths (the rest were ``step()``)."""
        return self.lockstep_cycles + self.divergent_cycles \
            + self.sleep_cycles + self.vector_cycles

    @property
    def engaged(self) -> bool:
        """True when at least one fast path fired during the run."""
        return bool(self.lockstep_bursts or self.divergent_bursts
                    or self.sleep_skips or self.vector_cycles
                    or self.sync_fused_rmws)

    def as_dict(self) -> dict:
        return {
            "lockstep_bursts": self.lockstep_bursts,
            "lockstep_cycles": self.lockstep_cycles,
            "divergent_bursts": self.divergent_bursts,
            "divergent_cycles": self.divergent_cycles,
            "sleep_skips": self.sleep_skips,
            "sleep_cycles": self.sleep_cycles,
            "fused_blocks": self.fused_blocks,
            "fused_cycles": self.fused_cycles,
            "deopt_count": self.deopt_count,
            "term_mem": self.term_mem,
            "term_sync": self.term_sync,
            "term_stop": self.term_stop,
            "term_diverge": self.term_diverge,
            "term_cap": self.term_cap,
            "pred_blocks": self.pred_blocks,
            "pred_aborts": self.pred_aborts,
            "sync_fused_rmws": self.sync_fused_rmws,
            "batched_runs": self.batched_runs,
            "vector_width": self.vector_width,
            "vector_blocks": self.vector_blocks,
            "vector_cycles": self.vector_cycles,
            "peel_count": self.peel_count,
            "fast_cycles": self.fast_cycles,
            "engaged": self.engaged,
        }


class FastEngine:
    """Opportunistic fast paths around a :class:`Machine`'s ``step()``."""

    __slots__ = ("_machine", "stats")

    def __init__(self, machine):
        self._machine = machine
        self.stats = EngineStats()

    # ------------------------------------------------------------------
    # Run loop
    # ------------------------------------------------------------------

    def run(self, limit: int, *, raise_on_limit: bool = True) -> None:
        """Advance the machine until every core halts or ``limit`` cycles.

        Passes the gate (:meth:`_advance`) before every reference
        ``step()``, so the fast paths run whenever their preconditions
        hold.  Probes force pure ``step()`` stepping (they observe
        individual cycles).
        """
        machine = self._machine
        trace = machine.trace
        step = machine.step
        fast = machine.fast_engine and not machine._probes
        while True:
            if fast:
                self._advance(limit)
            if trace.cycles >= limit:
                if not raise_on_limit:
                    return
                raise SimulationLimitError(
                    f"exceeded {limit} cycles "
                    f"(pcs={[c.pc for c in machine.cores]})")
            step()
            # Only a cycle with no activity at all can be the end of the
            # program or a deadlock; skip the scans otherwise.
            if machine._quiet:
                if machine.all_halted:
                    machine._finish_probes()
                    return
                machine._check_deadlock()

    # ------------------------------------------------------------------
    # Fast paths
    # ------------------------------------------------------------------

    def _advance(self, limit: int) -> None:
        """Consume as many cycles as the fast paths allow (maybe none).

        The one gate every fast path passes through.  Each pass runs
        the first phase of the next cycle within ``limit``
        (:meth:`Machine._begin_cycle`: latched wakeups, the timer fires
        and scheduled interrupts due then, interrupt delivery).  The
        phase consumes its inputs, so when the gate then hands the
        cycle to ``step()``, whose first phase runs again, nothing
        happens twice.  It returns unless nothing is in flight beyond
        the cores: no outstanding memory or synchronizer request, no
        interrupt left pending (one a core cannot take yet).  So no
        checkpoint word is locked (only an RMW in flight locks one) and
        no D-Xbar conflict group drains (only outstanding requests form
        one), and no regime creates either.  The horizon, the last cycle
        a regime may simulate, lies inside the run budget and before the
        following timer fire or scheduled interrupt, whose first phase
        the next pass runs.  One scan of the cores gives the running set
        and the idle census (halted, sleeping, barrier-sleeping).  Modes
        change only at a replayed RMW's write or at a ``SLEEP``/``HALT``,
        and either ends its burst (a checking-out or stopping core is
        active in that cycle, a woken one still asleep), so the census
        holds for every cycle the regime runs.  A regime that stops
        cleanly comes back here, sleep fast-forward included; one whose
        guard fails hands its cycle to ``step()``.
        """
        machine = self._machine
        trace = machine.trace
        cores = machine.cores
        barrier_sleeper = machine._barrier_sleeper
        begin_cycle = machine._begin_cycle
        while True:
            if trace.cycles >= limit:
                return
            begin_cycle(trace.cycles + 1)
            if machine._outstanding_count or machine._pending_irq_count:
                return
            sync = machine.synchronizer
            if sync is not None and sync.busy:
                return
            next_event = self._next_event_cycle()
            horizon = min(limit, next_event - 1)
            running = []
            halted = sleeping = waiting = 0
            for cid, core in enumerate(cores):
                mode = core.mode
                if mode is CoreMode.RUNNING:
                    running.append(core)
                elif mode is CoreMode.HALTED:
                    halted += 1
                else:
                    sleeping += 1
                    waiting += barrier_sleeper[cid]
            idle = (halted, sleeping, waiting)
            if not running:
                # With no timer or interrupt ahead, step() tells the end
                # of the program from a deadlock.
                if sleeping and next_event != INFINITY:
                    self._sleep_fast_forward(horizon, idle)
                    continue
                return
            pc = running[0].pc
            uniform = True
            for core in running:
                if core.pc != pc:
                    uniform = False
                    break
            if uniform and (len(running) == 1
                            or machine.config.im_broadcast):
                # One PC through the broadcast I-Xbar — or a single
                # requester, which wins its bank unconditionally even
                # without broadcast.
                if not self._lockstep_burst(running, pc, horizon, idle):
                    return
            else:
                # Divergent PCs (or broadcast off): the reference
                # serializes through rotating per-bank arbitration.
                if not self._divergent_burst(running, horizon, idle):
                    return

    def _next_event_cycle(self) -> float:
        """First cycle after the one whose first phase the gate ran at
        which a timer or scheduled IRQ fires (INFINITY when none)."""
        machine = self._machine
        nxt = machine._next_timer_fire
        schedule = machine._irq_schedule
        if schedule:
            now = machine.trace.cycles
            for cycle in schedule:
                if now < cycle < nxt:
                    nxt = cycle
        return nxt

    def _lockstep_burst(self, running: list, pc: int, horizon: int,
                        idle: tuple) -> bool:
        """Execute a run of plain instructions shared by all running cores.

        Mirrors, cycle for cycle, what ``step()`` does when every running
        core fetches one address through the broadcast I-Xbar and the
        instruction retires in one cycle: one IM bank access serves
        ``len(running)`` fetches, every running core is active, every
        idle core accrues its sleep/halt cycle.  A lockstep LD/ST whose
        requests provably win arbitration (distinct banks, or one
        broadcast read address) is served inline through
        :meth:`_mem_group`; one whose requests conflict in one bank is
        replayed through :meth:`_mem_replay` when the policy holds
        synchronous conflicts; a lockstep SINC/SDEC goes through
        :meth:`_checkpoint_rmw` (ending the burst when it sleeps or
        wakes cores).  A ``SLEEP``/``HALT`` runs as the burst's last
        cycle.  Everything else — PC divergence, other bank conflicts,
        an encoding outside the ISA table — ends the burst, as does the
        gate's horizon (``idle`` is its census of the other cores).

        Whole straight-line runs between those instructions are advanced
        by **fused superblocks** (:mod:`repro.cpu.blocks`): one fused
        call per running core covers the block's cycles, provided the
        block fits under the burst horizon.  Instructions without a
        fused block (short runs, code adjacent to memory/sync
        boundaries) take the per-instruction closure path.

        :returns: True if at least one cycle was consumed and no guard
            failed.
        """
        machine = self._machine
        trace = machine.trace
        decoded = machine._decoded
        im_len = len(decoded)
        cycles = trace.cycles
        halted, sleeping, waiting = idle

        table = machine._blocks
        if table is None:
            table = machine._block_table()
        blocks = table.blocks
        block_at = table.at

        # synchronous D-Xbar conflicts replayed in place: the cycles they
        # add beyond one per LD/ST, and their held cores' stall cycles
        held_cycles = stalled = 0
        terms: dict = {}
        executed = 0
        n_syncs = 0
        fused_blocks = 0
        fused_cycles = 0
        deopt = False
        n = len(running)
        single = running[0] if n == 1 else None
        # A single requester without IM broadcast is served through the
        # per-bank arbitration path, which rotates the bank's priority
        # to (winner + 1) on every fetch; track the banks it touches so
        # the rotation can be replayed at flush time (idempotent — the
        # winner never changes).
        banks: set | None = None
        if single is not None and not machine.config.im_broadcast:
            banks = set()
            bank_words = machine.config.im_bank_words
        while cycles < horizon:
            if pc >= im_len:
                deopt = True          # let step() raise the fetch error
                break
            blk = blocks.get(pc, False)
            if blk is False:
                blk = block_at(pc)
            if blk is not None and cycles + blk[1] <= horizon:
                run = blk[0]
                length = blk[1]
                if single is not None:
                    run(single)
                else:
                    for core in running:
                        run(core)
                term = blk[4]
                terms[term] = terms.get(term, 0) + 1
                cycles += length
                executed += length
                fused_blocks += 1
                fused_cycles += length
                if banks is not None:
                    # every fetch of the block rotates its bank: cover
                    # the whole span, which may cross several banks
                    banks.update(range(pc // bank_words,
                                       (pc + length - 1) // bank_words + 1))
                end_kind = blk[2]
                if end_kind == KIND_SEQ:
                    pc += length
                    continue
                pc = running[0].pc
                if end_kind == KIND_JUMP or single is not None:
                    continue
                diverged = False
                for core in running:
                    if core.pc != pc:
                        diverged = True
                        break
                if diverged:
                    break
                continue
            rec = decoded[pc]
            kind = rec[0]
            if kind <= BURSTABLE or (kind == KIND_STOP
                                     and _changes_mode(rec[2])):
                run = rec[1]
                if single is not None:
                    run(single)
                else:
                    for core in running:
                        run(core)
                cycles += 1
                executed += 1
                if banks is not None:
                    banks.add(pc // bank_words)
                if kind == KIND_SEQ:
                    pc += 1
                elif kind == KIND_STOP:
                    break             # SLEEP/HALT: the running set changes
                else:
                    pc = running[0].pc
                    if kind != KIND_JUMP:     # divergent control flow
                        diverged = False
                        for core in running:
                            if core.pc != pc:
                                diverged = True
                                break
                        if diverged:
                            break
            elif kind == KIND_MEM:
                if not self._mem_group(running, rec[1]):
                    # a synchronous one-bank conflict is replayed in
                    # place; any other pattern goes to step()
                    replayed = self._mem_replay(running, rec[1], pc,
                                                cycles, horizon)
                    if replayed is None:
                        deopt = True
                        break
                    cycles += replayed[0] - 1
                    held_cycles += replayed[0] - 1
                    stalled += replayed[1]
                cycles += 1
                executed += 1
                if banks is not None:
                    banks.add(pc // bank_words)
                pc += 1
            elif kind == KIND_SYNC:
                # A lockstep SINC/SDEC merges into one two-cycle
                # checkpoint RMW, replayed in place.  One that puts the
                # cores to sleep or wakes sleeping cores ends the burst.
                done = self._checkpoint_rmw(running, pc, rec[2], cycles,
                                            horizon)
                if done is None:
                    break             # step() runs it (no deopt)
                cycles += 2
                n_syncs += 1
                if banks is not None:
                    banks.add(pc // bank_words)
                pc += 1
                if done:
                    break
            else:
                deopt = True          # an encoding outside the table
                break
        if deopt:
            self.stats.deopt_count += 1
        if not executed and not n_syncs:
            return False

        # Batched accounting — the per-cycle counters of `executed`
        # identical lockstep cycles plus `n_syncs` two-cycle checkpoint
        # RMWs and the replayed conflicts' extra cycles, applied in one
        # update.
        busy = executed + 2 * n_syncs + held_cycles
        fetched = executed + n_syncs
        trace.cycles = cycles
        trace.core_active_cycles += busy * n - stalled
        if stalled:
            trace.core_stall_cycles += stalled
        trace.retired_ops += fetched * n
        retired = trace.retired_per_core
        for core in running:
            retired[core.coreid] += fetched
        trace.im_bank_accesses += fetched
        trace.im_fetches_served += fetched * n
        histogram = trace.lockstep_histogram
        histogram[n] = histogram.get(n, 0) + fetched
        if halted:
            trace.core_halted_cycles += busy * halted
        if sleeping:
            trace.core_sleep_cycles += busy * sleeping
        if waiting:
            trace.sync_wait_cycles += busy * waiting
        if banks is not None:
            rotated = (single.coreid + 1) % machine.config.num_cores
            priority = machine.ixbar._priority
            for bank in banks:
                priority[bank] = rotated
        stats = self.stats
        stats.lockstep_bursts += 1
        stats.lockstep_cycles += busy
        stats.fused_blocks += fused_blocks
        stats.fused_cycles += fused_cycles
        stats.sync_fused_rmws += n_syncs
        for reason, count in terms.items():
            attr = "term_" + reason
            setattr(stats, attr, getattr(stats, attr) + count)
        machine._quiet = False
        return not deopt

    def _checkpoint_rmw(self, group: list, pc: int, ins, cycles: int,
                        horizon: float, fetch: list = (), rec=None):
        """Replay both cycles of a served group's merged SINC/SDEC RMW.

        When a group of cores fetches one checkpoint instruction, the
        reference merges their requests into a *single* two-cycle
        read-modify-write: fetch and synchronizer read phase in cycle
        T, write phase / retire / wake latching in cycle T+1.  Neither
        cycle touches anything but the checkpoint word, so this applies
        :func:`~repro.platform.synchronizer.checkpoint_rmw` to it,
        credits the trace and the synchronizer (per-checkpoint
        statistics, listeners) for both cycles, advances the group's
        PCs and lands its mode changes: a check-out that leaves the
        barrier open puts the group to sleep, a release latches its
        sleepers' wakeups.  The gate takes the idle census first.

        In cycle T+1 the group sits out fetch arbitration.  ``fetch`` is
        the group the other running cores' arbitration serves then
        (none in a lockstep burst) and ``rec`` its dispatch record: a
        plain instruction runs, an LD/ST goes through :meth:`_mem_group`
        barred from the checkpoint word's bank, whose port the write
        phase holds, and a ``SLEEP``/``HALT`` runs after the write's wake
        check, as the reference's fetch follows its write phase.  Fetch
        accounting stays with the burst.

        :param cycles: the clock before cycle T (the RMW ends at
            ``cycles + 2``, which must not pass ``horizon``).
        :returns: True when the running set changes (the group sleeps,
            sleepers will wake, or the fetch sleeps or halts), False
            when it does not — or None, with nothing mutated, when
            ``step()`` must run the window: no synchronizer, an event
            inside it, a split checkpoint address (per-core ``Rsync``),
            an out-of-range word, a protocol violation about to raise,
            or a write-cycle fetch that is an encoding outside the ISA
            table, a SINC/SDEC or an LD/ST that might conflict or hits
            the checkpoint word's bank.
        """
        machine = self._machine
        sync = machine.synchronizer
        if sync is None or cycles + 2 > horizon:
            return None
        address = checkpoint_address(group[0], ins)
        for core in group:
            if checkpoint_address(core, ins) != address:
                return None
        words = machine.dm.words
        if address >= len(words):
            return None
        coreids = tuple([core.coreid for core in group])
        checkins, checkouts = (((), coreids) if ins.op is Opcode.SDEC
                               else (coreids, ()))
        word, count, released, woken, ok = checkpoint_rmw(
            words[address], sum([1 << cid for cid in checkins]),
            len(checkins), len(checkouts), machine.config.num_cores)
        if not ok:
            return None
        stop = False
        if fetch:
            # Touches neither the checkpoint word nor the group, so it
            # may run before the write it shares the cycle with.
            kind = rec[0]
            if kind <= BURSTABLE:
                run = rec[1]
                for core in fetch:
                    run(core)
            elif kind == KIND_STOP and _changes_mode(rec[2]):
                stop = True           # runs after the write's wake check
            elif kind != KIND_MEM or not self._mem_group(
                    fetch, rec[1], machine.config.dm_bank_of(address)):
                return None
        words[address] = word
        trace = machine.trace
        trace.dm_bank_reads += 1
        trace.dm_bank_writes += 1
        trace.sync_rmw_ops += 1
        trace.sync_checkins += len(checkins)
        trace.sync_checkouts += len(checkouts)
        trace.sync_wakeups += released
        for core in group:
            core.pc = pc + 1
        trace.cycles = cycles + 2         # listeners see the real clock
        sync.note_completion(cycles + 2, address, checkins, checkouts,
                             count, released, woken, True)
        changes = stop
        if released:
            # latched to the start of the cycle after the write
            wake = machine._wake_next
            for cid, core in enumerate(machine.cores):
                if woken >> cid & 1 and core.mode is CoreMode.SLEEPING:
                    wake.add(cid)
            changes = changes or bool(wake)
        elif checkouts:
            barrier_sleeper = machine._barrier_sleeper
            for core in group:
                core.mode = CoreMode.SLEEPING
                barrier_sleeper[core.coreid] = True
            changes = True
        if stop:
            run = rec[1]
            for core in fetch:
                run(core)
        return changes

    def _divergent_burst(self, running: list, horizon: int,
                         idle: tuple) -> bool:
        """Serialize divergent running cores through I-Xbar arbitration.

        Replays, cycle for cycle, what the reference does when running
        cores request *different* addresses in one IM bank (or IM
        broadcast is disabled): the bank's rotating priority picks one
        winner, the broadcast group sharing the winner's address (just
        the winner without broadcast) fetches and executes, everyone
        else stalls, and the priority rotates past the winner.

        Every served cycle sets the bank's priority to ``winner + 1``,
        and the running set cannot change inside a burst (a
        ``SLEEP``/``HALT`` is its last cycle), so the winners are the
        running cores in core-id order, cycling from the bank's
        priority: the burst walks that order instead of re-picking.  The
        broadcast groups are kept as a PC -> cores map, updated only for
        the cores that moved.  A lone winner's LD/ST is served inline —
        a single requester always wins its D-Xbar bank — and a group's
        through :meth:`_mem_group`.  Every served cycle is a conflict
        cycle (a full group ends the burst), so the conflict count, the
        lockstep histogram and the retire counts are credited once per
        burst.

        A winner group at ``SINC``/``SDEC`` replays its merged RMW
        through :meth:`_checkpoint_rmw`.  In the write cycle the group
        sits out: the rest arbitrate from the group's winner on, or
        take one broadcast fetch (no conflict, no rotation) when they
        share a PC.  That cycle breaks the fixed order, so the walk
        restarts after it.  A check-out that sleeps or a release that
        wakes ends the burst.

        Deopts to ``step()`` — committing nothing for that cycle — when
        the winner's instruction is outside the ISA table or would
        fault, when a served memory pattern may lose D-Xbar arbitration,
        when :meth:`_checkpoint_rmw` declines the RMW, and for the
        (never exercised by the bundled kernels) multi-bank divergence
        case.  Ends cleanly at the gate's horizon, after a served
        ``SLEEP``/``HALT``, when a served group leaves the bank, or when
        broadcast cores re-converge, handing back to the lockstep
        burst.  ``idle``
        is the gate's census of the other cores.

        :returns: True if at least one cycle was consumed and no guard
            failed.
        """
        machine = self._machine
        trace = machine.trace
        decoded = machine._decoded
        config = machine.config
        clock = trace.cycles
        budget = horizon - clock
        bank_words = config.im_bank_words
        bank = running[0].pc // bank_words
        lo = bank * bank_words
        # Leaving [lo, hi) ends the burst, so no served PC can pass the
        # image end unchecked (the reference's fetch error).
        hi = min(lo + bank_words, len(decoded))
        for core in running:
            if not lo <= core.pc < hi:
                self.stats.deopt_count += 1
                return False
        halted, sleeping, waiting = idle
        words = machine.dm.words
        dm_len = len(words)
        dm_priority = machine.dxbar._priority
        interleaved = config.dm_interleaved
        nb = config.dm_banks
        bw = config.dm_bank_words
        broadcast = config.im_broadcast
        ncores = config.num_cores
        n = len(running)
        rotated = [(core.coreid + 1) % ncores for core in running]
        priority = machine.ixbar._priority
        start = priority[bank]
        first = next((j for j, core in enumerate(running)
                      if core.coreid >= start), 0)
        groups: dict = {}
        if broadcast:
            for core in running:
                groups.setdefault(core.pc, []).append(core)
        # group size -> cycles, for groups of two or more (lone winners
        # are the rest); retirements the fixed order does not credit,
        # per core id
        sizes = [0] * (n + 1)
        extra = [0] * ncores
        dm_reads = dm_writes = 0
        executed = 0
        seg = 0               # cycle where the current fixed order began
        rmws = 0              # replayed checkpoint RMWs
        held = 0              # their groups' write-cycle activity
        quiet = 0             # their write cycles with no fetch conflict
        i = first
        deopt = False
        while executed < budget:
            winner = running[i]
            wpc = winner.pc
            if broadcast:
                served = groups[wpc]
                ns = len(served)
                if ns == n:
                    break             # converged: lockstep burst's regime
            else:
                ns = 1                # one fetch per bank per cycle
            rec = decoded[wpc]
            kind = rec[0]
            if kind <= BURSTABLE or (kind == KIND_STOP
                                     and _changes_mode(rec[2])):
                run = rec[1]
                if ns == 1:
                    run(winner)
                else:
                    for core in served:
                        run(core)
            elif kind == KIND_MEM:
                if ns == 1:
                    is_write, rs, imm, rd = rec[1]
                    regs = winner.regs
                    addr = (regs[rs] + imm) & 0xFFFF
                    if addr >= dm_len:
                        deopt = True  # out of range: step() faults
                        break
                    dm_priority[addr % nb if interleaved
                                else addr // bw] = rotated[i]
                    if is_write:
                        words[addr] = regs[rd] & 0xFFFF
                        dm_writes += 1
                    else:
                        regs[rd] = words[addr]
                        dm_reads += 1
                    winner.pc = wpc + 1
                elif not self._mem_group(served, rec[1]):
                    deopt = True      # possible D-Xbar conflict
                    break
            elif kind == KIND_SYNC:
                if executed + 2 > budget:
                    break             # the RMW's write is past the horizon
                if not broadcast:
                    served = [winner]
                # the write cycle's fetch: the first core after the
                # winner outside its group wins the bank
                for j in range(i + 1, i + n):
                    other = running[j % n]
                    if not broadcast or other.pc != wpc:
                        break
                fetch = groups[other.pc] if broadcast else [other]
                done = self._checkpoint_rmw(served, wpc, rec[2],
                                            clock + executed, horizon,
                                            fetch, decoded[other.pc])
                if done is None:
                    deopt = True
                    break
                # Credit the fixed order so far, then each of the two
                # cycles' served groups (the RMW's group is active in
                # both); the order restarts past the bank's new priority,
                # which a broadcast fetch leaves as it was.
                _credit_winners(extra, running, first, executed - seg)
                rmws += 1
                executed += 2
                held += ns
                for group in (served, fetch):
                    if len(group) > 1:
                        sizes[len(group)] += 1
                    for core in group:
                        extra[core.coreid] += 1
                whole = len(fetch) == n - ns
                quiet += whole
                i = ((i if broadcast and whole else j) + 1) % n
                first = i
                seg = executed
                if done:
                    break             # the running set changes
                if broadcast:
                    groups = {}
                    for core in running:
                        groups.setdefault(core.pc, []).append(core)
                if any(not lo <= core.pc < hi for core in running):
                    break
                continue
            else:
                deopt = True          # an encoding outside the table
                break
            executed += 1
            i += 1
            if i == n:
                i = 0
            if ns > 1:
                sizes[ns] += 1
                for core in served:
                    if core is not winner:
                        extra[core.coreid] += 1
            if kind == KIND_SEQ or kind == KIND_MEM:
                nxt = wpc + 1
            elif kind == KIND_STOP:
                break                 # SLEEP/HALT: the running set changes
            elif ns == 1 or kind == KIND_JUMP:
                nxt = winner.pc
            else:
                # per-core branch targets: regroup core by core
                del groups[wpc]
                moved = False
                for core in served:
                    pc = core.pc
                    groups.setdefault(pc, []).append(core)
                    if not lo <= pc < hi:
                        moved = True
                if moved:
                    break
                continue
            if broadcast:
                del groups[wpc]
                group = groups.get(nxt)
                if group is None:
                    groups[nxt] = served
                else:
                    group += served
            if not lo <= nxt < hi:
                break                 # next fetch is in another bank
        if deopt:
            self.stats.deopt_count += 1
        if not executed:
            return False

        # Each served group's other members retired beside its winner.
        _credit_winners(extra, running, first, executed - seg)
        retired_per_core = trace.retired_per_core
        for core in running:
            retired_per_core[core.coreid] += extra[core.coreid]
        priority[bank] = rotated[i - 1]
        served_total = executed
        histogram = trace.lockstep_histogram
        lone = executed
        for size in range(2, n):
            count = sizes[size]
            if count:
                served_total += (size - 1) * count
                lone -= count
                histogram[size] = histogram.get(size, 0) + count
        if lone:
            histogram[1] = histogram.get(1, 0) + lone
        trace.cycles = clock + executed
        trace.core_active_cycles += served_total + held
        trace.core_stall_cycles += executed * n - served_total - held
        trace.retired_ops += served_total
        trace.im_bank_accesses += executed
        trace.im_fetches_served += served_total
        trace.im_conflict_cycles += executed - quiet
        if dm_reads or dm_writes:
            trace.dm_bank_reads += dm_reads
            trace.dm_bank_writes += dm_writes
            trace.dm_served += dm_reads + dm_writes
        if halted:
            trace.core_halted_cycles += executed * halted
        if sleeping:
            trace.core_sleep_cycles += executed * sleeping
        if waiting:
            trace.sync_wait_cycles += executed * waiting
        stats = self.stats
        stats.divergent_bursts += 1
        stats.divergent_cycles += executed
        stats.sync_fused_rmws += rmws
        machine._quiet = False
        return not deopt

    def _mem_group(self, group: list, info: tuple,
                   busy_bank: int = -1) -> bool:
        """Serve one LD/ST cycle of a group at one PC when it provably wins.

        One pass works out every core's effective address and bank.  The
        cycle is conflict-free when the banks are pairwise distinct (a
        bitmask: each core is its bank's single requester, the case of
        :func:`~repro.platform.dxbar.serve_bank` applied inline) or when
        every core reads one shared address under DM broadcast (one bank
        read, winner from the kernel).  Only then does it commit, with
        ``DataCrossbar``'s counters and priority rotation.  Returns False,
        nothing mutated, on any other pattern, an out-of-range address or
        a request to ``busy_bank`` (a port the synchronizer holds).
        """
        machine = self._machine
        config = machine.config
        is_write, rs, imm, rd = info
        words = machine.dm.words
        size = len(words)
        interleaved = config.dm_interleaved
        nb = config.dm_banks
        bw = config.dm_bank_words
        staged = []
        mask = 0
        for core in group:
            addr = (core.regs[rs] + imm) & 0xFFFF
            if addr >= size:
                return False    # out of range: let the reference step fault
            bank = addr % nb if interleaved else addr // bw
            staged.append((core, addr, bank))
            mask |= 1 << bank
        if busy_bank >= 0 and mask >> busy_bank & 1:
            return False
        n = len(group)
        trace = machine.trace
        priority = machine.dxbar._priority
        ncores = config.num_cores
        if mask.bit_count() != n:
            if is_write or not config.dm_broadcast:
                return False
            _, addr, bank = staged[0]
            for item in staged:
                if item[1] != addr:
                    return False
            priority[bank] = serve_bank(
                priority[bank], [core.coreid for core in group], [addr] * n,
                (False,) * n, True, ncores)[1]
            value = words[addr]
            for core in group:
                core.regs[rd] = value
                core.pc += 1
            trace.dm_bank_reads += 1
        elif is_write:
            for core, addr, bank in staged:
                priority[bank] = (core.coreid + 1) % ncores
                words[addr] = core.regs[rd] & 0xFFFF
                core.pc += 1
            trace.dm_bank_writes += n
        else:
            for core, addr, bank in staged:
                priority[bank] = (core.coreid + 1) % ncores
                core.regs[rd] = words[addr]
                core.pc += 1
            trace.dm_bank_reads += n
        trace.dm_served += n
        return True

    def _mem_replay(self, group: list, info: tuple, pc: int, cycles: int,
                    horizon: float):
        """Replay a synchronous one-bank conflict of a lockstep LD/ST.

        The enhanced D-Xbar policy (paper sec. IV) serves conflicting
        lockstep requests one bank access per cycle and stalls the
        served cores until the whole group is served, so lockstep
        survives.  This calls :func:`~repro.platform.dxbar.serve_bank`
        once per cycle for the ``k`` cycles ``step()`` takes, with the
        register and memory updates, the D-Xbar counters and a call to
        each conflict listener per conflict cycle, with the losers and
        the cycle number ``DataCrossbar.arbitrate`` would pass.  Every
        core is active in cycle 1 (the broadcast fetch) and cycle ``k``
        (which releases the group); in between only that cycle's served
        cores are.  Fetch and retire accounting stays with the burst.

        :param cycles: the clock before the fetch cycle.
        :returns: ``(k, stalled)``, the cycles taken and the held cores'
            stall cycles, or None, with nothing mutated, when the policy
            has no synchronous stall, the requests span several banks (a
            bank with fewer requests releases its cores early, breaking
            lockstep), an address is out of range, or the ``k`` cycles
            would pass ``horizon``.
        """
        machine = self._machine
        config = machine.config
        if not config.has_dxbar_sync_stall:
            return None
        is_write, rs, imm, rd = info
        words = machine.dm.words
        addrs = [(core.regs[rs] + imm) & 0xFFFF for core in group]
        if max(addrs) >= len(words):
            return None
        bank_of = config.dm_bank_of
        bank = bank_of(addrs[0])
        if any(bank_of(addr) != bank for addr in addrs):
            return None
        n = len(group)
        broadcast = config.dm_broadcast
        k = n if is_write or not broadcast else len(set(addrs))
        if cycles + k > horizon:
            return None
        dxbar = machine.dxbar
        priority = dxbar._priority
        listeners = dxbar.conflict_listeners
        ncores = config.num_cores
        coreids = [core.coreid for core in group]
        flags = (is_write,) * n
        left = list(range(n))         # positions not yet served
        stalled = 0
        for cycle in range(cycles + 1, cycles + k + 1):
            served, priority[bank] = serve_bank(
                priority[bank], [coreids[p] for p in left],
                [addrs[p] for p in left], flags, broadcast, ncores)
            served = [left[s] for s in served]
            if is_write:
                words[addrs[served[0]]] = group[served[0]].regs[rd] & 0xFFFF
            else:
                value = words[addrs[served[0]]]
                for p in served:
                    group[p].regs[rd] = value
            left = [p for p in left if p not in served]
            if not left:
                break                 # cycle k: the group is released
            if cycle > cycles + 1:
                stalled += n - len(served)
            if listeners:
                losers = tuple(
                    DmRequest(coreids[p], addrs[p], is_write,
                              group[p].regs[rd] if is_write else 0, pc)
                    for p in left)
                for listener in listeners:
                    listener(cycle, losers)
        for core in group:
            core.pc = pc + 1
        trace = machine.trace
        if is_write:
            trace.dm_bank_writes += k
        else:
            trace.dm_bank_reads += k
        trace.dm_served += n
        trace.dm_conflict_cycles += k - 1
        return k, stalled

    def _sleep_fast_forward(self, horizon: int, idle: tuple) -> None:
        """Jump over an all-asleep stretch to the gate's horizon.

        Taken when no core runs and a timer or scheduled interrupt lies
        ahead: past the gate nothing is in flight and no interrupt is
        pending, so *nothing* can change before that event.  Credits
        every skipped cycle's sleep/halt (and barrier wait) counters,
        from the gate's census ``idle``, in bulk.  The gate's next pass
        runs the event's first phase, which delivers its interrupt.
        """
        machine = self._machine
        halted, sleeping, waiting = idle
        trace = machine.trace
        skipped = horizon - trace.cycles
        trace.cycles = horizon
        trace.core_sleep_cycles += skipped * sleeping
        if halted:
            trace.core_halted_cycles += skipped * halted
        if waiting:
            trace.sync_wait_cycles += skipped * waiting
        self.stats.sleep_skips += 1
        self.stats.sleep_cycles += skipped
        machine._quiet = True
