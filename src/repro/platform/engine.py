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
broadcast read), one inline pass over the banks.  The engine executes
the entire run of such instructions in a tight loop and credits the
activity counters in one batched update — the software mirror of a
broadcast fetch serving all cores from a single IM bank read.

**Superblock fusion** — inside a burst the engine still pays one closure
call per instruction per core.  :mod:`repro.cpu.blocks` compiles every
straight-line run (ending at jump/branch/memory boundaries) into one
fused function, so a burst advances whole blocks at a time: one fused
call per running core covers the block's cycles, with the activity
counters bulk-credited for the run.  A fused call is only made when the
burst has already proven that many uninterrupted cycles (PC uniform, no
pending IRQ/sync/memory work, horizon clearance); any guard failure
**deoptimizes** to the reference ``step()`` for that cycle, counted in
:attr:`EngineStats.deopt_count`.  A predicated block (if-converted
hammocks) whose cores disagree on an arm is not a deopt: the burst runs
the block's instructions before its first hammock branch one at a time,
executes that branch, and ends on the divergence it causes.

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
asleep, or a release that wakes sleepers, ends the burst; the engine
applies the latched wakeups itself at the start of the next cycle, as
``step()``'s first phase does, unless a timer or interrupt lands then.

**Sleep fast-forward** — duty-cycled streaming nodes sleep for hundreds of
cycles between ADC interrupts.  When no core is running and only a timer
or a scheduled interrupt can change machine state, the engine jumps
``trace.cycles`` straight to the cycle before the next event and
bulk-credits the sleep/halt counters, instead of ticking the idle
platform one cycle at a time.

All paths are cycle-exact: every counter in the
:class:`~repro.platform.trace.ActivityTrace`, every register and every
memory word ends up bit-for-bit identical to pure ``step()`` stepping
(guarded by ``tests/platform/test_engine_differential.py``).  Whenever a
precondition fails — probes attached, outstanding memory or synchronizer
work, pending interrupts, mode changes — the engine degrades to the
reference ``step()`` for that cycle; a burst whose guard fails hands
that cycle straight back.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cpu.executor import checkpoint_address
from ..cpu.predecode import BURSTABLE, KIND_JUMP, KIND_MEM, KIND_SEQ, \
    KIND_SYNC
from ..cpu.state import CoreMode
from ..isa.spec import Opcode
from .synchronizer import checkpoint_rmw

INFINITY = float("inf")

#: consecutive failed fast-path probes back off exponentially: the first
#: failure is free (a probe is a handful of attribute checks — far
#: cheaper than one reference cycle — and the cycle after a barrier RMW
#: or IRQ delivery is usually burstable again), then 1, 2, 4, ...
#: reference cycles are stepped between probes up to this cap.  The cap
#: only matters in step()-owned stretches the bursts cannot enter at
#: all (held memory conflicts, back-to-back IRQ delivery).
_MAX_BACKOFF = 16


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
    to prove the fast engine stayed engaged during a traced run."""

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
    #: bursts abandoned by a guard check — a STOP instruction, a
    #: memory pattern that may lose D-Xbar arbitration, a divergent
    #: checkpoint RMW the replay declines, an off-image or multi-bank
    #: PC.  The abandoned cycle is replayed by the reference ``step()``,
    #: which the burst hands it to at once.  Burst endings that need no
    #: fallback (horizon, convergence, divergence, a served group
    #: leaving its IM bank, a predicated block's cores disagreeing on an
    #: arm, a checkpoint RMW that sleeps or wakes cores, a lockstep one
    #: that ``step()`` must run) are not deopts.
    deopt_count: int = 0
    #: executions of fused blocks containing inlined memory ops, and
    #: the fused LD/STs those executions served (per block execution,
    #: not per core — mirrors ``fused_blocks``)
    mem_fused_blocks: int = 0
    mem_fused_ops: int = 0
    #: block-termination census: every fused-block execution credits
    #: the reason its block stopped fusing further instructions —
    #: an unfusable memory op (``term_mem``), a synchronizer op
    #: (``term_sync``), a mode change / unfusable instruction / end of
    #: image (``term_stop``), a control-flow terminator
    #: (``term_diverge``), or the MAX_BLOCK cap (``term_cap``).
    #: ``term_guard`` instead counts *runtime* aborts: a memory-fused
    #: block whose cross-core address re-check failed (wrong or
    #: config-defeated fact) and was rolled back before committing.
    term_mem: int = 0
    term_sync: int = 0
    term_stop: int = 0
    term_diverge: int = 0
    term_cap: int = 0
    term_guard: int = 0
    #: if-converted (predicated) fused-block executions: the block
    #: computed both hammock arms branch-free and charged the taken
    #: path's cycle cost, and the cycles those executions consumed
    pred_blocks: int = 0
    pred_cycles: int = 0
    #: predicated executions rolled back because the cores disagreed on
    #: which arms they took, once per disagreement: the burst runs the
    #: block's instructions before its first hammock branch one at a
    #: time, and the divergent burst serves the arms (not a deopt)
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
            "mem_fused_blocks": self.mem_fused_blocks,
            "mem_fused_ops": self.mem_fused_ops,
            "term_mem": self.term_mem,
            "term_sync": self.term_sync,
            "term_stop": self.term_stop,
            "term_diverge": self.term_diverge,
            "term_cap": self.term_cap,
            "term_guard": self.term_guard,
            "pred_blocks": self.pred_blocks,
            "pred_cycles": self.pred_cycles,
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

        Uses the fast paths whenever their preconditions hold and the
        reference ``step()`` otherwise.  Probes force pure ``step()``
        stepping (they observe individual cycles).
        """
        machine = self._machine
        trace = machine.trace
        step = machine.step
        fast = machine.fast_engine and not machine._probes
        backoff = 0           # slow cycles left before the next probe
        penalty = 0           # backoff charged by the next failed probe
        while True:
            if fast:
                if backoff:
                    backoff -= 1
                else:
                    before = trace.cycles
                    self._advance(limit)
                    if trace.cycles != before:
                        penalty = 0
                    else:
                        backoff = penalty
                        if penalty == 0:
                            penalty = 1
                        elif penalty < _MAX_BACKOFF:
                            penalty += penalty
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
        """Consume as many cycles as the fast paths allow (maybe none)."""
        machine = self._machine
        cores = machine.cores
        while True:
            # Preconditions shared by both fast paths: nothing in flight
            # anywhere but the cores themselves.
            if machine._outstanding_count or machine._pending_irq_count:
                return
            sync = machine.synchronizer
            if sync is not None and sync.busy:
                return
            cycles = machine.trace.cycles
            if cycles >= limit:
                return
            if machine._wake_next:
                # A release's wakeups land at the start of the next
                # cycle, as step()'s phase 1 applies them — unless a
                # timer or IRQ lands on that cycle too: step() owns it.
                if self._next_event_cycle() <= cycles + 1:
                    return
                machine._apply_wakes()
            running = [c for c in cores if c.mode is CoreMode.RUNNING]
            if not running:
                self._sleep_fast_forward(limit)
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
                if not self._lockstep_burst(running, pc, limit):
                    return
            else:
                # Divergent PCs (or broadcast off): the reference
                # serializes through rotating per-bank arbitration.
                if not self._divergent_burst(running, limit):
                    return

    def _next_event_cycle(self) -> float:
        """First future cycle at which a timer or scheduled IRQ fires."""
        machine = self._machine
        nxt = machine._next_timer_fire
        schedule = machine._irq_schedule
        if schedule:
            now = machine.trace.cycles
            for cycle in schedule:
                if now < cycle < nxt:
                    nxt = cycle
        return nxt

    def _idle_census(self) -> tuple[int, int, int]:
        """(halted, sleeping, barrier-sleeping) core counts."""
        machine = self._machine
        halted = sleeping = waiting = 0
        for cid, core in enumerate(machine.cores):
            mode = core.mode
            if mode is CoreMode.HALTED:
                halted += 1
            elif mode is CoreMode.SLEEPING:
                sleeping += 1
                if machine._barrier_sleeper[cid]:
                    waiting += 1
        return halted, sleeping, waiting

    def _lockstep_burst(self, running: list, pc: int, limit: int) -> bool:
        """Execute a run of plain instructions shared by all running cores.

        Mirrors, cycle for cycle, what ``step()`` does when every running
        core fetches one address through the broadcast I-Xbar and the
        instruction retires in one cycle: one IM bank access serves
        ``len(running)`` fetches, every running core is active, every
        idle core accrues its sleep/halt cycle.  A lockstep LD/ST whose
        requests provably win arbitration (distinct banks, or one
        broadcast read address) is served inline through
        :meth:`_mem_cycle`, and a lockstep SINC/SDEC through
        :meth:`_checkpoint_rmw` (ending the burst when it sleeps or
        wakes cores); everything else — mode changes, PC divergence,
        bank conflicts — ends the burst, as does the cycle before the
        next timer/IRQ event.

        Whole straight-line runs are advanced by **fused superblocks**
        (:mod:`repro.cpu.blocks`): one fused call per running core
        covers the block's cycles, provided the block fits under the
        burst horizon.  Instructions without a fused block (short runs,
        code adjacent to memory/sync boundaries) take the
        per-instruction closure path.

        :returns: True if at least one cycle was consumed and no guard
            failed.
        """
        machine = self._machine
        trace = machine.trace
        decoded = machine._decoded
        im_len = len(decoded)
        # The last cycle this burst may simulate: stay inside the run
        # budget and strictly before the next external event, which must
        # be handled (and accounted) by the reference step().
        horizon = min(limit, self._next_event_cycle() - 1)
        cycles = trace.cycles
        if cycles >= horizon:
            return False
        # Only the burst's last RMW may change core modes, and not before
        # its write cycle has ended (a checking-out core is active on it,
        # a woken one sleeps through it), so one census taken first
        # covers the whole burst.
        halted, sleeping, waiting = self._idle_census()

        table = machine._blocks
        if table is None:
            table = machine._block_table()
        blocks = table.blocks
        block_at = table.at

        # The synchronizer is idle (precondition), so no checkpoint word
        # is locked and no conflict group is draining; inline memory
        # cycles stay valid for the whole burst because they can create
        # neither.
        dxbar = machine.dxbar
        mem_ok = not (dxbar.locked_addresses or dxbar._groups)
        config = machine.config
        words = machine.dm.words
        dm_priority = dxbar._priority
        ncores = config.num_cores
        interleaved = config.dm_interleaved
        nb = config.dm_banks
        bw = config.dm_bank_words
        dm_reads = dm_writes = dm_served = 0
        mem_blocks = 0
        mem_ops = 0
        terms: dict = {}
        executed = 0
        n_syncs = 0
        fused_blocks = 0
        fused_cycles = 0
        pred_blocks_l = 0
        pred_cycles_l = 0
        # Blocks are skipped up to this PC: the prefix of a predicated
        # block whose cores disagreed on an arm, up to its first hammock
        # branch, runs per instruction (see the abort below).
        split = -1
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
            blk = blocks.get(pc, False) if pc > split else None
            if blk is False:
                blk = block_at(pc)
            if (blk is not None and cycles + blk[1] <= horizon
                    and (mem_ok or not blk[5])
                    and (banks is None or not blk[8])):
                run = blk[0]
                length = blk[1]
                end_kind = blk[2]
                memspec = blk[5]
                preds = blk[8]
                if memspec or preds:
                    # Memory-fused / predicated block: pure phase per
                    # core, re-check the actual cross-core address
                    # pattern (the static facts are hints, not trusted
                    # proofs) and cross-core arm agreement, then commit.
                    # Any failure aborts with *nothing* committed, so
                    # the reference step() replays from the block start
                    # bit-exactly.
                    try:
                        if single is not None:
                            outs = (run(single, words),)
                        else:
                            outs = [run(core, words) for core in running]
                    except IndexError:
                        self.stats.term_guard += 1
                        deopt = True      # out-of-range: step() faults
                        break
                    hp = 0
                    gates = blk[9]
                    if preds:
                        # Lockstep cores must take the same arms, or
                        # the block-granular cycle accounting (and the
                        # op-major store order) no longer matches the
                        # reference.  On disagreement nothing was
                        # committed: run the instructions before the
                        # first hammock branch one at a time; that
                        # branch splits the cores, the burst ends, and
                        # `_divergent_burst` serves the arms.
                        hp = outs[0][blk[10]]
                        if n > 1:
                            for out in outs:
                                if out[blk[10]] != hp:
                                    hp = -1
                                    break
                            if hp < 0:
                                self.stats.pred_aborts += 1
                                split = blk[12]
                                continue
                        length = outs[0][blk[11]]
                    if n > 1 and memspec and not self._mem_guard(
                            memspec, outs, n, gates, hp):
                        self.stats.term_guard += 1
                        deopt = True      # fact wrong: step() arbitrates
                        break
                    # Deferred stores land op-major across cores — the
                    # reference's cycle order (all cores serve op j
                    # before any core reaches op j+1).
                    for j, value_at in blk[6]:
                        if gates and gates[j] and not hp & gates[j]:
                            continue      # arm not taken: no store
                        for out in outs:
                            words[out[j]] = out[value_at]
                    commit = blk[7]
                    for core, out in zip(running, outs):
                        commit(core, out)
                    # Replay DataCrossbar priority rotation and bulk-
                    # credit its counters, op by op in program order.
                    served_ops = 0
                    for j, (uniform, is_write) in enumerate(memspec):
                        if gates and gates[j] and not hp & gates[j]:
                            continue      # arm not taken: no access
                        served_ops += 1
                        if uniform and n > 1:
                            addr = outs[0][j]
                            bank = (addr % nb if interleaved
                                    else addr // bw)
                            base = dm_priority[bank]
                            winner = running[0].coreid
                            best = (winner - base) % ncores
                            for core in running:
                                key = (core.coreid - base) % ncores
                                if key < best:
                                    winner = core.coreid
                                    best = key
                            dm_priority[bank] = (winner + 1) % ncores
                            dm_reads += 1
                        else:
                            for core, out in zip(running, outs):
                                addr = out[j]
                                bank = (addr % nb if interleaved
                                        else addr // bw)
                                dm_priority[bank] = \
                                    (core.coreid + 1) % ncores
                            if is_write:
                                dm_writes += n
                            else:
                                dm_reads += n
                        dm_served += n
                    if memspec:
                        mem_blocks += 1
                        mem_ops += served_ops
                    if preds:
                        pred_blocks_l += 1
                        pred_cycles_l += length
                elif single is not None:
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
                                       (pc + blk[1] - 1) // bank_words + 1))
                if end_kind == KIND_SEQ:
                    pc += blk[1]
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
            if kind <= BURSTABLE:
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
                else:
                    pc = running[0].pc
                    split = -1            # past any split hammock
                    if kind != KIND_JUMP:     # divergent control flow
                        diverged = False
                        for core in running:
                            if core.pc != pc:
                                diverged = True
                                break
                        if diverged:
                            break
            elif kind == KIND_MEM and mem_ok:
                if not self._mem_cycle(running, rec[1]):
                    deopt = True      # possible conflict: slow path
                    break
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
                deopt = True          # mode change / unclassified
                break
        if deopt:
            self.stats.deopt_count += 1
        if not executed and not n_syncs:
            return False

        # Batched accounting — the per-cycle counters of `executed`
        # identical lockstep cycles plus `n_syncs` two-cycle checkpoint
        # RMWs, applied in one update.
        busy = executed + 2 * n_syncs
        fetched = executed + n_syncs
        trace.cycles = cycles
        trace.core_active_cycles += busy * n
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
        if dm_served:
            trace.dm_bank_reads += dm_reads
            trace.dm_bank_writes += dm_writes
            trace.dm_served += dm_served
        stats = self.stats
        stats.lockstep_bursts += 1
        stats.lockstep_cycles += busy
        stats.fused_blocks += fused_blocks
        stats.fused_cycles += fused_cycles
        stats.mem_fused_blocks += mem_blocks
        stats.mem_fused_ops += mem_ops
        stats.pred_blocks += pred_blocks_l
        stats.pred_cycles += pred_cycles_l
        stats.sync_fused_rmws += n_syncs
        for reason, count in terms.items():
            attr = "term_" + reason
            setattr(stats, attr, getattr(stats, attr) + count)
        machine._quiet = False
        return not deopt

    def _mem_guard(self, memspec, outs, n: int, gates: tuple = (),
                   hp: int = 0) -> bool:
        """Verify the actual cross-core address pattern of a memory block.

        ``outs[c][j]`` is core ``c``'s effective address for fused op
        ``j``.  A uniform op must see one shared address (the broadcast
        read the block was compiled for); an affine op must see pairwise
        distinct banks (every core wins its private bank).  Anything
        else could lose D-Xbar arbitration, so the block is abandoned —
        the compile-time facts were hints, this is the proof.  Gated
        ops (inside a predicated arm, see ``FusedBlock.gates``) whose
        arm did not execute report sentinel addresses and are skipped.
        """
        config = self._machine.config
        interleaved = config.dm_interleaved
        nb = config.dm_banks
        bw = config.dm_bank_words
        for j, (uniform, _is_write) in enumerate(memspec):
            if gates and gates[j] and not hp & gates[j]:
                continue
            if uniform:
                addr = outs[0][j]
                for out in outs:
                    if out[j] != addr:
                        return False
            else:
                if interleaved:
                    banks = {out[j] % nb for out in outs}
                else:
                    banks = {out[j] // bw for out in outs}
                if len(banks) != n:
                    return False
        return True

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
        sleepers' wakeups.  Both bursts take their idle census first.

        In cycle T+1 the group sits out fetch arbitration.  ``fetch`` is
        the group the other running cores' arbitration serves then
        (none in a lockstep burst) and ``rec`` its dispatch record: a
        plain instruction runs, an LD/ST goes through :meth:`_mem_cycle`
        barred from the checkpoint word's bank, whose port the write
        phase holds.  Fetch accounting stays with the burst.

        :param cycles: the clock before cycle T (the RMW ends at
            ``cycles + 2``, which must not pass ``horizon``).
        :returns: True when the running set changes (the group sleeps,
            or sleepers will wake), False when it does not — or None,
            with nothing mutated, when ``step()`` must run the window:
            no synchronizer, an event inside it, a split checkpoint
            address (per-core ``Rsync``), a locked or out-of-range
            word, a protocol violation about to raise, or a write-cycle
            fetch that is a STOP, a SINC/SDEC or an LD/ST that might
            conflict or hits the checkpoint word's bank.
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
        if (address >= len(words)
                or address in machine.dxbar.locked_addresses):
            return None
        coreids = tuple([core.coreid for core in group])
        checkins, checkouts = (((), coreids) if ins.op is Opcode.SDEC
                               else (coreids, ()))
        word, count, released, woken, ok = checkpoint_rmw(
            words[address], sum([1 << cid for cid in checkins]),
            len(checkins), len(checkouts), machine.config.num_cores)
        if not ok:
            return None
        if fetch:
            # Touches neither the checkpoint word nor the group, so it
            # may run before the write it shares the cycle with.
            kind = rec[0]
            if kind <= BURSTABLE:
                run = rec[1]
                for core in fetch:
                    run(core)
            elif kind != KIND_MEM or not self._mem_cycle(
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
        if released:
            # latched to the start of the cycle after the write
            wake = machine._wake_next
            for cid, core in enumerate(machine.cores):
                if woken >> cid & 1 and core.mode is CoreMode.SLEEPING:
                    wake.add(cid)
            return bool(wake)
        if checkouts:
            barrier_sleeper = machine._barrier_sleeper
            for core in group:
                core.mode = CoreMode.SLEEPING
                barrier_sleeper[core.coreid] = True
            return True
        return False

    def _divergent_burst(self, running: list, limit: int) -> bool:
        """Serialize divergent running cores through I-Xbar arbitration.

        Replays, cycle for cycle, what the reference does when running
        cores request *different* addresses in one IM bank (or IM
        broadcast is disabled): the bank's rotating priority picks one
        winner, the broadcast group sharing the winner's address (just
        the winner without broadcast) fetches and executes, everyone
        else stalls, and the priority rotates past the winner.

        Every served cycle sets the bank's priority to ``winner + 1``,
        and the running set cannot change inside a burst (mode changes
        deopt before committing), so the winners are the running cores
        in core-id order, cycling from the bank's priority: the burst
        walks that order instead of re-picking.  The broadcast groups
        are kept as a PC -> cores map, updated only for the cores that
        moved.  A lone winner's LD/ST is served inline — a single
        requester always wins its D-Xbar bank — and a group's through
        :meth:`_mem_cycle`.  Every served cycle is a conflict cycle (a
        full group ends the burst), so the conflict count, the lockstep
        histogram and the retire counts are credited once per burst.

        A winner group at ``SINC``/``SDEC`` replays its merged RMW
        through :meth:`_checkpoint_rmw`.  In the write cycle the group
        sits out: the rest arbitrate from the group's winner on, or
        take one broadcast fetch (no conflict, no rotation) when they
        share a PC.  That cycle breaks the fixed order, so the walk
        restarts after it.  A check-out that sleeps or a release that
        wakes ends the burst.

        Deopts to ``step()`` — committing nothing for that cycle — when
        the winner would stop or fault, when a served memory pattern
        may lose D-Xbar arbitration, when :meth:`_checkpoint_rmw`
        declines the RMW, and for the (never exercised by the bundled
        kernels) multi-bank divergence case.  Ends cleanly at the
        horizon, when a served group leaves the bank, or when broadcast
        cores re-converge, handing back to the lockstep burst.

        :returns: True if at least one cycle was consumed and no guard
            failed.
        """
        machine = self._machine
        trace = machine.trace
        decoded = machine._decoded
        config = machine.config
        clock = trace.cycles
        horizon = min(limit, self._next_event_cycle() - 1)
        budget = horizon - clock
        if budget <= 0:
            return False
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
        # Mode changes land only at a replayed RMW's write, and the burst
        # ends there, so one census taken first covers every cycle.
        halted, sleeping, waiting = self._idle_census()
        dxbar = machine.dxbar
        mem_ok = not (dxbar.locked_addresses or dxbar._groups)
        words = machine.dm.words
        dm_len = len(words)
        dm_priority = dxbar._priority
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
            if kind <= BURSTABLE:
                run = rec[1]
                if ns == 1:
                    run(winner)
                else:
                    for core in served:
                        run(core)
            elif kind == KIND_MEM and mem_ok:
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
                elif not self._mem_cycle(served, rec[1]):
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
                deopt = True          # mode change
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

    def _mem_cycle(self, running: list, info: tuple,
                   busy_bank: int = -1) -> bool:
        """Serve one lockstep LD/ST cycle inline when it provably wins.

        Handles the two request patterns that cannot lose D-Xbar
        arbitration: every core hitting a distinct bank (the SPMD
        private-buffer pattern) and every core reading one shared
        address (one broadcast bank read serves all).  Reproduces the
        counter updates, round-robin priority rotation and serve order
        of ``DataCrossbar._serve_bank`` exactly.  Returns False —
        leaving all state untouched — on any other pattern, any
        out-of-range address or any request to ``busy_bank`` (a port
        the synchronizer holds), so the reference ``step()`` arbitrates
        the conflict or raises the fault.
        """
        machine = self._machine
        config = machine.config
        is_write, rs, imm, rd = info
        words = machine.dm.words
        addrs = [(core.regs[rs] + imm) & 0xFFFF for core in running]
        if max(addrs) >= len(words):
            return False    # out of range: let the reference step fault
        if config.dm_interleaved:
            nb = config.dm_banks
            bankl = [addr % nb for addr in addrs]
        else:
            bank_words = config.dm_bank_words
            bankl = [addr // bank_words for addr in addrs]
        if busy_bank in bankl:
            return False

        n = len(running)
        trace = machine.trace
        priority = machine.dxbar._priority
        ncores = config.num_cores
        if len(set(bankl)) != n:
            if is_write or not config.dm_broadcast:
                return False
            addr = addrs[0]
            for other in addrs:
                if other != addr:
                    return False
            bank = bankl[0]
            winner = min((core.coreid for core in running),
                         key=lambda cid: (cid - priority[bank]) % ncores)
            priority[bank] = (winner + 1) % ncores
            value = words[addr]
            trace.dm_bank_reads += 1
            for core in running:
                core.regs[rd] = value
                core.pc += 1
            trace.dm_served += n
            return True
        if is_write:
            for core, addr, bank in zip(running, addrs, bankl):
                priority[bank] = (core.coreid + 1) % ncores
                words[addr] = core.regs[rd] & 0xFFFF
                core.pc += 1
            trace.dm_bank_writes += n
        else:
            for core, addr, bank in zip(running, addrs, bankl):
                priority[bank] = (core.coreid + 1) % ncores
                core.regs[rd] = words[addr]
                core.pc += 1
            trace.dm_bank_reads += n
        trace.dm_served += n
        return True

    def _sleep_fast_forward(self, limit: int) -> bool:
        """Jump over an all-asleep stretch to the next timer/IRQ event.

        Only taken when the platform is fully event-driven: no core runs,
        nothing is in flight, and no pending interrupt is deliverable —
        so *nothing* can change until the next timer fire or scheduled
        interrupt.  Credits every skipped cycle's sleep/halt (and barrier
        wait) counters in bulk.

        :returns: True if at least one cycle was skipped.
        """
        machine = self._machine
        if machine._pending_irq_count:
            # A deliverable pending IRQ changes state on the very next
            # cycle; leave it to the reference step().  Undeliverable
            # ones (masked, halted, checked out at a barrier) stay
            # pending for the whole sleep period.
            for cid, pending in enumerate(machine._pending_irq):
                if not pending:
                    continue
                core = machine.cores[cid]
                if (core.interrupts_enabled
                        and core.mode is not CoreMode.HALTED
                        and not machine._barrier_sleeper[cid]):
                    return False
        next_event = self._next_event_cycle()
        if next_event == INFINITY:
            return False              # deadlock or halt: step() decides
        trace = machine.trace
        target = min(limit, next_event - 1)
        skipped = target - trace.cycles
        if skipped <= 0:
            return False
        halted, sleeping, waiting = self._idle_census()
        if not sleeping:
            return False              # fully halted: run loop terminates
        trace.cycles = target
        trace.core_sleep_cycles += skipped * sleeping
        if halted:
            trace.core_halted_cycles += skipped * halted
        if waiting:
            trace.sync_wait_cycles += skipped * waiting
        self.stats.sleep_skips += 1
        self.stats.sleep_cycles += skipped
        machine._quiet = True
        return True
