"""Cycle-level model of the 8-core ULP platform.

One :meth:`Machine.step` call simulates one clock cycle of the whole
platform, in the order the hardware resolves it:

1. apply wakeups latched last cycle; raise the interrupts scheduled or
   timed for this cycle; deliver every pending one a core can take
   (:meth:`Machine._begin_cycle`);
2. synchronizer write phase — pending checkpoint read-modify-writes
   complete, checked-out cores go to sleep or the barrier releases;
3. instruction fetch arbitration through the I-Xbar (with broadcast);
4. execution of fetched instructions — plain instructions retire
   immediately, loads/stores and ``SINC``/``SDEC`` become requests;
5. synchronizer read phase — new merged check-in/check-out RMWs start and
   lock their checkpoint words;
6. D-Xbar arbitration — broadcast reads, serialized conflicts, and (with
   the enhanced policy) synchronous-stall conflict groups;
7. per-core activity accounting for the power model.

Cores are clock gated while they wait for arbitration (counted as stalled)
and consume only sleep power while checked out at a barrier.

``step()`` is the *reference* engine; :meth:`Machine.run` drives it
through the :class:`~repro.platform.engine.FastEngine`, which collapses
lockstep and divergent stretches and idle sleep periods into batched
updates whenever that is provably cycle-exact (and always when probes
are attached falls back to per-cycle stepping).  The engine's gate runs
phase 1 of every cycle through the same method, so wakeups, timer fires
and interrupt delivery have one definition; phase 1 consumes its
inputs, so ``step()`` repeating it for a cycle the gate hands over
changes nothing.  Construct with ``fast_engine=False`` to force pure
``step()`` stepping.
"""

from __future__ import annotations

from ..cpu.executor import (
    ExecutionError,
    checkpoint_address,
    effective_address,
    execute_plain,
    store_operands,
    take_interrupt,
)
from ..cpu.predecode import KIND_MEM, KIND_SYNC
from ..cpu.state import CoreMode, CoreState
from ..isa.program import Program
from ..isa.spec import Opcode
from .config import PlatformConfig, WITH_SYNCHRONIZER
from .dxbar import DataCrossbar, DmRequest
from .engine import DeadlockError, FastEngine, INFINITY, SimulationLimitError
from .ixbar import InstructionCrossbar
from .memory import BankedMemory
from .synchronizer import Synchronizer, SyncRequest
from .trace import ActivityTrace

__all__ = [
    "DeadlockError",
    "Machine",
    "SimulationLimitError",
]

#: shared immutable stand-in for "no banks busy this cycle" — avoids
#: allocating a set on every cycle without synchronizer traffic.
_NO_BANKS: frozenset[int] = frozenset()


def _timer_next_fire(period: int, offset: int, after: int) -> int:
    """First cycle > ``after`` at which a periodic timer fires.

    Matches the reference predicate ``cycle >= offset and
    (cycle - offset) % period == 0`` (cycle numbering starts at 1).
    """
    if offset > after:
        return offset
    return offset + ((after - offset) // period + 1) * period


class Machine:
    """The multi-core platform simulator.

    :param program: the SPMD image every core executes.
    :param config: structural/policy parameters
        (default: the paper's improved 8-core design).
    :param fast_engine: allow :meth:`run`/:meth:`run_cycles` to take the
        cycle-exact fast paths (lockstep bursts, sleep fast-forward).
        Disable to force the reference ``step()`` for every cycle.
    """

    def __init__(self, program: Program,
                 config: PlatformConfig = WITH_SYNCHRONIZER,
                 *, fast_engine: bool = True):
        self.config = config
        self.trace = ActivityTrace()
        self.trace.retired_per_core = [0] * config.num_cores

        if len(program.instructions) > config.im_words:
            raise ValueError("program does not fit in instruction memory")
        self.im = list(program.instructions)
        self.dm = BankedMemory(config.dm_banks, config.dm_bank_words)
        for block in program.data:
            self.dm.load(block.address, block.values)
        self.program = program
        #: predecoded dispatch records, index == IM address (shared with
        #: other machines running the same Program instance)
        self._decoded = program.predecoded()
        #: fused-superblock table (:class:`repro.cpu.blocks.BlockTable`),
        #: bound lazily on first burst so reference-only machines never
        #: pay for it; shared across machines via the image digest.
        self._blocks = None

        self.cores = [CoreState(cid, config.num_cores)
                      for cid in range(config.num_cores)]
        for core in self.cores:
            core.pc = program.entry

        self.ixbar = InstructionCrossbar(config, self.trace)
        self.dxbar = DataCrossbar(config, self.trace, self.dm)
        self.synchronizer = (
            Synchronizer(config, self.trace, self.dm, self.dxbar)
            if config.has_synchronizer else None)

        self._quiet = False
        self._probes: list = []
        self._observers: list = []
        self._outstanding: list[tuple | None] = [None] * config.num_cores
        self._outstanding_count = 0
        self._barrier_sleeper = [False] * config.num_cores
        self._wake_next: set[int] = set()
        self._pending_irq = [False] * config.num_cores
        self._pending_irq_count = 0
        self._irq_schedule: dict[int, list[int]] = {}
        self._timers: list[tuple[int, int, tuple[int, ...]]] = []
        #: per-timer next-fire cycle, parallel to ``_timers``
        self._timer_next: list[int] = []
        #: min of ``_timer_next`` (INFINITY when no timers) — the step
        #: loop compares one number instead of re-moduloing every timer.
        self._next_timer_fire: float = INFINITY

        self.fast_engine = fast_engine
        self._engine = FastEngine(self)

    @property
    def engine_stats(self):
        """Fast-engine engagement counters (:class:`EngineStats`)."""
        return self._engine.stats

    def _block_table(self):
        """Bind (and memoize) the fused-superblock table for this image.

        Keyed on the image digest (:func:`repro.cpu.blocks.table_for`),
        so every machine running the same built image — across sweep
        requests, platform configurations and repeated benchmark
        constructions — shares one compiled table.
        """
        if self._blocks is None:
            from ..cpu.blocks import table_for

            self._blocks = table_for(self.program)
        return self._blocks

    @classmethod
    def from_assembly(cls, source: str,
                      config: PlatformConfig = WITH_SYNCHRONIZER,
                      **kwargs) -> "Machine":
        """Assemble ``source`` and construct a machine running it."""
        from ..isa.assembler import assemble

        return cls(assemble(source), config, **kwargs)

    # ------------------------------------------------------------------
    # External stimulus
    # ------------------------------------------------------------------

    def schedule_interrupt(self, cycle: int, core: int) -> None:
        """Latch an interrupt request for ``core`` at absolute ``cycle``."""
        self._irq_schedule.setdefault(cycle, []).append(core)

    def add_timer(self, period: int, cores=None, *, offset: int = 0) -> None:
        """Add a periodic interrupt source (e.g. an ADC sample timer).

        Raises an IRQ on every listed core each ``period`` cycles,
        starting at ``offset`` — the stimulus for streaming, duty-cycled
        biosignal processing.
        """
        if period < 1:
            raise ValueError("timer period must be positive")
        targets = tuple(range(self.config.num_cores)) if cores is None \
            else tuple(cores)
        self._timers.append((period, offset, targets))
        fire = _timer_next_fire(period, offset, self.trace.cycles)
        self._timer_next.append(fire)
        if fire < self._next_timer_fire:
            self._next_timer_fire = fire

    def attach_probe(self, probe) -> None:
        """Attach a cycle probe: ``probe.sample(machine, active_cores)`` is
        called at the end of every simulated cycle (costs nothing when no
        probe is attached).  Probes may implement ``finish(machine)``,
        invoked by :meth:`run` on completion.  While any probe is
        attached the fast engine stands down, so every cycle is stepped
        (and sampled) individually."""
        self._probes.append(probe)

    def attach_observer(self, observer) -> None:
        """Attach an *event* observer: unlike a probe it has no per-cycle
        ``sample`` hook, so the fast engine stays engaged.  Observers
        subscribe to event streams themselves (synchronizer completion
        listeners, D-Xbar conflict listeners); the machine only calls
        their optional ``finish(machine)`` when a run completes — e.g.
        :class:`repro.telemetry.BarrierTracer`."""
        self._observers.append(observer)

    def is_barrier_sleeper(self, core_id: int) -> bool:
        """True while ``core_id`` is asleep checked out at a barrier (as
        opposed to an explicit ``SLEEP``) — the distinction probes need
        to attribute wait cycles to a pending checkpoint."""
        return self._barrier_sleeper[core_id]

    # ------------------------------------------------------------------
    # Cycle engine (reference path)
    # ------------------------------------------------------------------

    def step(self) -> None:
        """Simulate one clock cycle."""
        trace = self.trace
        cores = self.cores
        trace.cycles += 1
        active: set[int] = set()

        # -- 1. latched wakeups and interrupts ---------------------------
        self._begin_cycle(trace.cycles)

        # -- 2. synchronizer write phase ---------------------------------
        busy_banks: set[int] = _NO_BANKS
        synchronizer = self.synchronizer
        if synchronizer is not None and synchronizer.busy:
            completions, busy_banks = synchronizer.write_phase()
            for comp in completions:
                for cid in comp.checkin_cores:
                    self._retire_sync(cid, active)
                for cid in comp.checkout_cores:
                    self._retire_sync(cid, active)
                    if not comp.barrier_released:
                        cores[cid].mode = CoreMode.SLEEPING
                        self._barrier_sleeper[cid] = True
                for cid in comp.woken_cores:
                    if cores[cid].mode is CoreMode.SLEEPING:
                        self._wake_next.add(cid)

        # -- 3. fetch arbitration ----------------------------------------
        fetchers = {
            cid: cores[cid].pc
            for cid in range(self.config.num_cores)
            if (cores[cid].mode is CoreMode.RUNNING
                and self._outstanding[cid] is None
                and cid not in active)
        }
        granted = self.ixbar.arbitrate(fetchers) if fetchers else set()

        # -- 4. execute / classify fetched instructions -------------------
        decoded = self._decoded
        for cid in granted:
            core = cores[cid]
            pc = core.pc
            if pc >= len(self.im):
                raise ExecutionError(
                    f"core {cid} fetched past the program end (pc={pc})")
            ins = self.im[pc]
            active.add(cid)
            kind = decoded[pc][0]
            if kind == KIND_MEM:
                self._outstanding[cid] = ("mem", ins)
                self._outstanding_count += 1
            elif kind == KIND_SYNC:
                if self.synchronizer is None:
                    raise ExecutionError(
                        f"core {cid} executed {ins.op.name} but the platform "
                        "has no hardware synchronizer")
                self._outstanding[cid] = ("sync", ins)
                self._outstanding_count += 1
            else:
                execute_plain(core, ins)
                self._retire(cid)

        # -- collect outstanding memory / sync requests -------------------
        if self._outstanding_count:
            dm_requests: list[DmRequest] = []
            sync_requests: list[SyncRequest] = []
            for cid, out in enumerate(self._outstanding):
                if out is None:
                    continue
                kind, ins = out
                core = cores[cid]
                if kind == "mem":
                    if ins.op is Opcode.ST:
                        addr, value = store_operands(core, ins)
                        dm_requests.append(
                            DmRequest(cid, addr, True, value, core.pc))
                    else:
                        dm_requests.append(
                            DmRequest(cid, effective_address(core, ins),
                                      False, 0, core.pc))
                elif kind == "sync":
                    sync_requests.append(
                        SyncRequest(cid, checkpoint_address(core, ins),
                                    ins.op is Opcode.SDEC))
        else:
            dm_requests = []
            sync_requests = []

        # -- 5. synchronizer read phase ------------------------------------
        if sync_requests:
            accepted, busy_banks = self.synchronizer.read_phase(
                sync_requests, busy_banks)
            for cid in accepted:
                _, ins = self._outstanding[cid]
                self._outstanding[cid] = ("sync_wait", ins)
                active.add(cid)

        # -- 6. data crossbar ------------------------------------------------
        if dm_requests:
            result = self.dxbar.arbitrate(dm_requests, busy_banks)
            for cid, value in result.completions.items():
                kind, ins = self._outstanding[cid]
                if value is not None:
                    cores[cid].regs[ins.rd] = value
                self._outstanding[cid] = ("mem_held", ins)
                active.add(cid)
            for cid in result.released:
                kind, ins = self._outstanding[cid]
                cores[cid].pc += 1
                self._outstanding[cid] = None
                self._outstanding_count -= 1
                self._retire(cid)
                active.add(cid)

        # -- 7. accounting ------------------------------------------------
        for cid, core in enumerate(cores):
            if cid in active:
                trace.core_active_cycles += 1
            elif core.mode is CoreMode.HALTED:
                trace.core_halted_cycles += 1
            elif core.mode is CoreMode.SLEEPING or cid in self._wake_next:
                trace.core_sleep_cycles += 1
                if self._barrier_sleeper[cid]:
                    trace.sync_wait_cycles += 1
            else:
                trace.core_stall_cycles += 1
        self._quiet = not active
        if self._probes:
            for probe in self._probes:
                probe.sample(self, active)

    # ------------------------------------------------------------------

    def _begin_cycle(self, cycle: int) -> None:
        """Phase 1 of ``cycle``: apply the wakeups latched last cycle,
        raise the interrupts scheduled or timed for ``cycle`` and deliver
        every pending one a core can take.

        ``step()`` calls it, and so does the fast engine's gate before it
        picks a regime for ``cycle``.  The phase consumes its inputs (the
        latched set, the schedule entry, the timer cursors, the delivered
        flags), so a second call for the same cycle changes nothing:
        ``step()`` may run a cycle whose phase 1 the gate already ran.
        """
        cores = self.cores
        if self._wake_next:
            for cid in self._wake_next:
                core = cores[cid]
                if core.mode is CoreMode.SLEEPING:
                    core.mode = CoreMode.RUNNING
                self._barrier_sleeper[cid] = False
            self._wake_next.clear()

        pending = self._pending_irq
        if self._irq_schedule:
            for cid in self._irq_schedule.pop(cycle, ()):
                if not pending[cid]:
                    pending[cid] = True
                    self._pending_irq_count += 1
        if cycle >= self._next_timer_fire:
            timer_next = self._timer_next
            for index, (period, _offset, targets) in enumerate(self._timers):
                if timer_next[index] == cycle:
                    for cid in targets:
                        if not pending[cid]:
                            pending[cid] = True
                            self._pending_irq_count += 1
                    timer_next[index] = cycle + period
            self._next_timer_fire = min(timer_next)
        if self._pending_irq_count:
            for cid, core in enumerate(cores):
                # A core checked out at a barrier is clock gated by the
                # synchronizer, one level below interrupt-wakeable sleep:
                # waking it early would let it run past an unreleased
                # checkpoint.  Its IRQ stays pending until the wakeup.
                if (pending[cid] and core.interrupts_enabled
                        and core.mode is not CoreMode.HALTED
                        and not self._barrier_sleeper[cid]
                        and self._outstanding[cid] is None):
                    take_interrupt(core)
                    pending[cid] = False
                    self._pending_irq_count -= 1

    def _retire(self, cid: int) -> None:
        self.trace.retired_ops += 1
        self.trace.retired_per_core[cid] += 1

    def _retire_sync(self, cid: int, active: set[int]) -> None:
        """Finish a SINC/SDEC: advance the PC and count the op."""
        self.cores[cid].pc += 1
        self._outstanding[cid] = None
        self._outstanding_count -= 1
        self._retire(cid)
        active.add(cid)

    def _finish_probes(self) -> None:
        """Invoke every probe's and observer's optional ``finish`` hook."""
        for probe in self._probes:
            finish = getattr(probe, "finish", None)
            if finish is not None:
                finish(self)
        for observer in self._observers:
            finish = getattr(observer, "finish", None)
            if finish is not None:
                finish(self)

    # ------------------------------------------------------------------
    # Run control
    # ------------------------------------------------------------------

    @property
    def all_halted(self) -> bool:
        return all(core.mode is CoreMode.HALTED for core in self.cores)

    def _check_deadlock(self) -> None:
        if self.all_halted:
            return
        if any(core.mode is CoreMode.RUNNING for core in self.cores):
            return
        if self._wake_next or (self.synchronizer and self.synchronizer.busy):
            return
        if self._irq_schedule or self._timers:
            return
        if any(pending and not self._barrier_sleeper[cid]
               and self.cores[cid].mode is not CoreMode.HALTED
               for cid, pending in enumerate(self._pending_irq)):
            return
        sleepers = [
            (cid, core.pc) for cid, core in enumerate(self.cores)
            if core.mode is CoreMode.SLEEPING
        ]
        raise DeadlockError(
            "no runnable core and no pending wakeup; sleeping cores "
            f"(id, pc): {sleepers}")

    def run(self, max_cycles: int | None = None) -> ActivityTrace:
        """Run until every core halts; returns the activity trace."""
        limit = max_cycles if max_cycles is not None else self.config.max_cycles
        if self.all_halted:
            return self.trace
        self._engine.run(limit)
        return self.trace

    def run_cycles(self, count: int) -> ActivityTrace:
        """Run for at most ``count`` more cycles (stops when all halt).

        Shares the engine (and its fast paths) with :meth:`run`: like
        ``run()`` it detects completion on the first quiet cycle after
        the last core halts and then invokes probe ``finish()`` hooks,
        instead of rescanning every core each cycle.
        """
        if count <= 0 or self.all_halted:
            return self.trace
        self._engine.run(self.trace.cycles + count, raise_on_limit=False)
        return self.trace
