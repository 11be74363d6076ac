"""Array-of-machines: NumPy-vectorized lockstep execution.

The scalar fast engine (:mod:`repro.platform.engine`) already collapses
lockstep broadcast cycles into bursts and fuses straight-line runs into
superblocks — but it still pays one Python closure call *per core* per
block, and one independent engine *per sweep run*.  On the paper's
workloads both axes are redundant: the cores execute the same
instruction stream (that is what the broadcast I-Xbar and the
synchronizer create), and a sweep dispatches many runs of the *same
built image* that differ only in their input samples.

This module vectorizes both axes at once.  Machine state is transposed
into a structure-of-arrays layout (:class:`VecState`): one
``(runs, cores, 8)`` register file, ``(runs, cores)`` flag and
special-register planes, one ``(runs, words)`` data-memory plane.  Every
straight-line block is compiled — by the same discovery walk as
:mod:`repro.cpu.blocks`, with its statements taken from the semantics
table's ``VEC`` rendering (:mod:`repro.cpu.semantics`: the templates the
scalar closures and superblocks are rendered from, with selects as
``np.where``) — into one **vectorized block** whose single call applies
the block to *every core of every run* in the batch.  A batch of 64 runs
on 8 cores advances 512 lanes per block call.

**Guarded deopt, end to end.**  The batch engine executes only regimes
it can prove are in cross-run lockstep; everything else *peels* the
affected runs out of the batch, bit-exactly, back to their reference
:class:`~repro.platform.machine.Machine`:

- machines with pending work (IRQ schedules, timers, outstanding memory
  or synchronizer state, non-running cores) are refused at entry and
  never touched (:class:`BatchStats` counts each refusal by reason);
- a ``HALT``/``SLEEP`` (or an encoding outside the ISA table), an
  off-image PC or an out-of-range address peels the whole group at
  that PC (the scalar engine then raises or arbitrates exactly as it
  would have);
- a ``SINC``/``SDEC`` every core of every run executes together is
  replayed vectorized — the synchronizer's merged two-cycle checkpoint
  RMW (:func:`~repro.platform.synchronizer.checkpoint_rmw`) applied to
  the whole ``(runs,)`` plane of checkpoint words — and only the runs
  the replay guard rejects (split addresses, out-of-range words,
  would-raise counters, cores that would sleep) peel;
- a data-dependent branch that diverges *within* a run peels that run
  (its cores now need per-core PCs); one that diverges *across* runs
  splits the group — each subset keeps executing vectorized at its own
  PC, and subsets that land on the same PC re-merge;
- every LD/ST ends a block and runs as one vectorized lockstep cycle
  (:meth:`_FamilyRunner._mem`); addresses that differ across runs
  split the group by address pattern, and a pattern that could lose
  D-Xbar arbitration peels.

Peeled machines carry their exact mid-flight state: registers, flags,
PCs, special registers, data memory, D-Xbar rotating priorities and all
:class:`~repro.platform.trace.ActivityTrace` counters (credited with the
same batched accounting the scalar lockstep burst uses).  Finishing a
peeled machine with ``machine.run()`` therefore produces results
bit-identical to never having batched it — the property
``tests/cpu/test_vec.py`` proves differentially.
"""

from __future__ import annotations

from ast import literal_eval
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ..isa.spec import Opcode
from ..platform.synchronizer import checkpoint_rmw
from .blocks import BlockTable, cached_table
from .semantics import (
    KIND_DIVERGE,
    KIND_JUMP,
    KIND_MEM,
    KIND_SEQ,
    KIND_SYNC,
    VEC,
    Writer,
)
from .state import CoreMode

MASK = 0xFFFF

#: even a single vectorized instruction beats per-core closure calls
#: once the batch is wider than a few lanes, so unlike the scalar
#: superblocks every fusable instruction gets a block.
MIN_BLOCK = 1
MAX_BLOCK = 64


class VecBlock(NamedTuple):
    """One compiled vectorized block.

    :param run: ``run(S, idx)`` — applies the block to every core of the
        runs selected by ``idx`` (a row-index array into ``S``); returns
        the per-lane PC array for ``KIND_DIVERGE`` endings, else None.
    :param length: instructions covered == cycles per lane.
    :param end_kind: ``KIND_SEQ`` (fall through ``length`` addresses),
        ``KIND_JUMP`` (uniform :attr:`target`) or ``KIND_DIVERGE``.
    :param target: static target for ``KIND_JUMP`` endings.
    :param source: generated Python source (tests/debugging).
    """

    run: object
    length: int
    end_kind: int
    target: int | None
    source: str


# ---------------------------------------------------------------------------
# Code generation — the semantics table's VEC rendering.  Lane values live
# in int64 arrays, which is exact for every ulp16 operation (the widest
# intermediate, MULH's 32-bit product, fits with room to spare); flag
# writes produce booleans or 0/1 bits, both of which the int64 planes
# store as 0/1.  A local may also be a constant-folded Python scalar
# (``LDI`` into a register), which broadcasts like any plane.
# ---------------------------------------------------------------------------

def _plane(local: str) -> str:
    """The state plane holding ``local`` for the rows ``idx``."""
    if local[0] == "r":
        return f"S.regs[idx, :, {local[1:]}]"
    if local[0] == "f":
        return f"S.{local}[idx]"
    if local == "s_coreid":
        return "S.coreid_row"
    if local == "s_ncores":
        return "S.ncores"
    return f"S.{local[2:]}[idx]"


def _gather(w: Writer) -> list[str]:
    return [f"    {name} = {_plane(name)}" for name in sorted(w.touched)]


def _scatter(w: Writer) -> list[str]:
    return [f"    {_plane(name)} = {name}" for name in sorted(w.written)]


def compile_block(decoded: list, start: int) -> VecBlock | None:
    """Compile the vectorized block beginning at IM address ``start``.

    Same discovery rules as :func:`repro.cpu.blocks.compile_block`,
    except that a lone terminator compiles too and :data:`MIN_BLOCK`
    is 1 — with hundreds of lanes per call even a singleton pays.
    Returns ``None`` when the instruction at ``start`` cannot be
    vectorized (memory/sync/stop boundary).
    """
    im_len = len(decoded)
    if start >= im_len:
        return None
    w = Writer(VEC)
    length = 0
    end_kind = KIND_SEQ
    target: int | None = None
    pc = start
    while pc < im_len and length < MAX_BLOCK:
        kind, _, ins = decoded[pc]
        if kind == KIND_SEQ:
            w.inline(ins, pc)
            length += 1
            pc += 1
            continue
        if kind in (KIND_JUMP, KIND_DIVERGE):
            next_pc = w.inline(ins, pc)
            if kind == KIND_JUMP:
                target = literal_eval(next_pc)
            else:
                w.emit(f"_pcs = {next_pc}")
            length += 1
            end_kind = kind
        break
    if length < MIN_BLOCK:
        return None
    body = _gather(w) + w.body + _scatter(w)
    if end_kind == KIND_DIVERGE:
        body.append("    return _pcs")
    source = "\n".join(["def run(S, idx):"] + (body or ["    pass"])) + "\n"
    namespace: dict = {"np": np}
    exec(compile(source, f"<vec@{start}+{length}>", "exec"), namespace)
    return VecBlock(namespace["run"], length, end_kind, target, source)


class VecTable(BlockTable):
    """Lazily-compiled vectorized blocks for one program image."""

    __slots__ = ()

    compile = staticmethod(compile_block)
    # defined on this class too, so each table class's ``at`` can be
    # wrapped on its own (the per-layer benchmark tracer does)
    at = BlockTable.at


def table_for(program) -> VecTable:
    """The shared :class:`VecTable` for ``program``'s built image (see
    :func:`repro.cpu.blocks.cached_table`, whose cache it shares)."""
    return cached_table(VecTable, program)


# ---------------------------------------------------------------------------
# Batch state and statistics
# ---------------------------------------------------------------------------

class VecState:
    """Structure-of-arrays snapshot of one family of machines.

    Row ``i`` of every plane is machine ``i``'s state; the generated
    block code indexes the planes with a run-index array, so one call
    touches every lane of a whole group.  The ``d_*`` planes accumulate
    per-run trace deltas that are credited back at peel time.
    """

    __slots__ = (
        "machines", "C", "W", "ncores", "coreid_row",
        "regs", "fz", "fn", "fc", "fv",
        "rsync", "ivec", "epc", "status",
        "dm", "prio",
        "start_cycles", "d_cycles", "d_blocks",
        "d_dm_reads", "d_dm_writes", "d_dm_served",
        "d_syncs", "d_releases", "d_diverges", "width",
    )


def _build_state(machines: list) -> VecState:
    C = machines[0].config.num_cores
    N = len(machines)
    S = VecState()
    S.machines = machines
    S.C = C
    S.ncores = C
    S.W = len(machines[0].dm.words)
    S.coreid_row = np.arange(C, dtype=np.int64)
    S.regs = np.array([[core.regs for core in m.cores] for m in machines],
                      dtype=np.int64)

    def plane(attr):
        return np.array([[getattr(core, attr) for core in m.cores]
                         for m in machines], dtype=np.int64)

    S.fz = plane("flag_z")
    S.fn = plane("flag_n")
    S.fc = plane("flag_c")
    S.fv = plane("flag_v")
    S.rsync = plane("rsync")
    S.ivec = plane("ivec")
    S.epc = plane("epc")
    S.status = plane("status")
    S.dm = np.array([m.dm.words for m in machines], dtype=np.int64)
    S.prio = np.array([m.dxbar._priority for m in machines], dtype=np.int64)
    S.start_cycles = np.array([m.trace.cycles for m in machines],
                              dtype=np.int64)
    S.d_cycles = np.zeros(N, dtype=np.int64)
    S.d_blocks = np.zeros(N, dtype=np.int64)
    S.d_dm_reads = np.zeros(N, dtype=np.int64)
    S.d_dm_writes = np.zeros(N, dtype=np.int64)
    S.d_dm_served = np.zeros(N, dtype=np.int64)
    S.d_syncs = np.zeros(N, dtype=np.int64)
    S.d_releases = np.zeros(N, dtype=np.int64)
    S.d_diverges = np.zeros(N, dtype=np.int64)
    S.width = np.zeros(N, dtype=np.int64)
    return S


@dataclass
class BatchStats:
    """What one :func:`run_batch` call did, for telemetry and tests.

    :ivar requested: machines offered to the batch.
    :ivar batched: machines that entered the vector phase.
    :ivar rejected: machines refused by an entry guard (pending IRQs,
        non-running cores, busy synchronizer, ...), left untouched.
    :ivar refusals: rejected machines by entry-guard reason (the
        :func:`batch_entry_guard` return value) — the silent scalar
        fallbacks, made visible for the log/metrics plane.
    :ivar families: distinct (image, config, entry PC) groups executed.
    :ivar vector_cycles: per-run cycles advanced vectorized, summed.
    :ivar vector_blocks: per-run vectorized block executions, summed.
    :ivar max_width: widest ``runs x cores`` lane count executed.
    :ivar peels: peel-out counts by reason; ``"stop"`` is the natural
        end-of-program exit, everything else is an early peel.
    """

    requested: int = 0
    batched: int = 0
    rejected: int = 0
    refusals: dict[str, int] = field(default_factory=dict)
    families: int = 0
    vector_cycles: int = 0
    vector_blocks: int = 0
    max_width: int = 0
    peels: dict[str, int] = field(default_factory=dict)

    @property
    def early_peels(self) -> int:
        return sum(count for reason, count in self.peels.items()
                   if reason != "stop")

    def as_dict(self) -> dict:
        return {
            "requested": self.requested,
            "batched": self.batched,
            "rejected": self.rejected,
            "refusals": dict(sorted(self.refusals.items())),
            "families": self.families,
            "vector_cycles": self.vector_cycles,
            "vector_blocks": self.vector_blocks,
            "max_width": self.max_width,
            "early_peels": self.early_peels,
            "peels": dict(sorted(self.peels.items())),
        }


# ---------------------------------------------------------------------------
# Entry guards
# ---------------------------------------------------------------------------

def batch_entry_guard(machine, limit: int) -> str | None:
    """Why ``machine`` cannot enter a batch right now (None = it can).

    The guards are the batch-engine analogue of the scalar burst
    preconditions, plus the structural ones the batch cannot peel its
    way out of mid-flight (timers and scheduled IRQs fire at absolute
    cycles, which the group-scheduled batch cannot honour).
    """
    if not machine.fast_engine or machine._probes:
        return "engine"
    if (machine._outstanding_count or machine._pending_irq_count
            or machine._wake_next):
        return "inflight"
    sync = machine.synchronizer
    if sync is not None and sync.busy:
        return "sync-busy"
    if machine._timers or machine._irq_schedule:
        return "irq"
    if not machine.config.im_broadcast:
        return "no-broadcast"
    cores = machine.cores
    pc0 = cores[0].pc
    for core in cores:
        if core.mode is not CoreMode.RUNNING:
            return "mode"
        if core.pc != pc0:
            return "pc"
    if machine.trace.cycles >= limit:
        return "limit"
    return None


# ---------------------------------------------------------------------------
# The batch engine
# ---------------------------------------------------------------------------

class _Group:
    """Runs sharing one PC; counters are group-uniform deltas that are
    flushed to the per-run planes whenever membership changes."""

    __slots__ = ("idx", "pc", "executed", "blocks",
                 "dm_reads", "dm_writes", "dm_served",
                 "syncs", "releases")

    def __init__(self, idx, pc: int):
        self.idx = idx
        self.pc = pc
        self.executed = 0
        self.blocks = 0
        self.dm_reads = 0
        self.dm_writes = 0
        self.dm_served = 0
        self.syncs = 0
        self.releases = 0


class _FamilyRunner:
    """Advances one same-image family of machines in lockstep."""

    def __init__(self, machines: list, limit: int, stats: BatchStats):
        self.machines = machines
        self.limit = limit
        self.stats = stats
        self.N = len(machines)
        machine = machines[0]
        self.config = machine.config
        self.decoded = machine._decoded
        self.im_len = len(self.decoded)
        self.table = table_for(machine.program)
        self.S = _build_state(machines)
        self.worklist: list[_Group] = [
            _Group(np.arange(self.N, dtype=np.int64), machine.cores[0].pc)]

    def run(self) -> None:
        while self.worklist:
            self._advance(self.worklist.pop())

    # -- group stepping --------------------------------------------------

    def _advance(self, g: _Group) -> None:
        S = self.S
        idx = g.idx
        k = len(idx)
        C = S.C
        limit = self.limit
        blocks = self.table.blocks
        block_at = self.table.at
        decoded = self.decoded
        im_len = self.im_len
        base = int((S.start_cycles[idx] + S.d_cycles[idx]).max())
        while True:
            pc = g.pc
            if pc >= im_len:
                self._peel(g, None, "fault")
                return
            blk = blocks.get(pc, False)
            if blk is False:
                blk = block_at(pc)
            if blk is not None:
                if base + g.executed + blk.length > limit:
                    self._peel(g, None, "horizon")
                    return
                pcs = blk.run(S, idx)
                g.executed += blk.length
                g.blocks += 1
                end = blk.end_kind
                if end == KIND_SEQ:
                    g.pc = pc + blk.length
                    continue
                if end == KIND_JUMP:
                    g.pc = blk.target
                    continue
                # KIND_DIVERGE: targets may differ per lane
                pcs = np.asarray(pcs)
                if pcs.ndim == 0:
                    g.pc = int(pcs)
                    continue
                if pcs.ndim < 2:
                    # (C,)-shaped: uniform across runs, maybe not cores
                    pcs = np.broadcast_to(pcs, (k, C))
                first = int(pcs[0, 0])
                if np.all(pcs == first):
                    g.pc = first
                    continue
                self._diverge(g, pcs)
                return
            rec = decoded[pc]
            kind = rec[0]
            if kind == KIND_MEM:
                if base + g.executed + 1 > limit:
                    self._peel(g, None, "horizon")
                    return
                if self._mem(g, rec[1]):
                    g.pc = pc + 1
                    continue
                return          # peeled or split inside _mem
            if kind == KIND_SYNC:
                if self._sync(g, rec[2], base):
                    g.pc = pc + 1
                    continue
                return          # peeled, split, or re-enqueued
            # KIND_STOP: HALT/SLEEP, or an encoding outside the table
            # (every other plain instruction compiles a block)
            self._peel(g, None, "stop")
            return

    def _diverge(self, g: _Group, pcs) -> None:
        """Split a group on a data-dependent branch outcome.

        Runs whose cores disagree *internally* leave lockstep entirely
        and peel with per-core PCs; runs that stay internally uniform
        regroup by target PC and keep executing vectorized.
        """
        self._flush(g)
        idx = g.idx
        self.S.d_diverges[idx] += 1
        first = pcs[:, 0]
        uniform = (pcs == first[:, None]).all(axis=1)
        if not uniform.all():
            bad = np.flatnonzero(~uniform)
            self._writeback(idx[bad], pcs[bad], "diverge")
        good = np.flatnonzero(uniform)
        if not good.size:
            return
        good_idx = idx[good]
        good_pc = first[good]
        for target in np.unique(good_pc):
            self._enqueue(good_idx[good_pc == target], int(target))

    def _enqueue(self, idx, pc: int) -> None:
        """Queue a (flushed) sub-group, re-merging at equal PCs."""
        for other in self.worklist:
            if other.pc == pc:
                other.idx = np.concatenate([other.idx, idx])
                return
        self.worklist.append(_Group(idx, pc))

    def _mem(self, g: _Group, info: tuple) -> bool:
        """One vectorized lockstep LD/ST cycle; mirrors the patterns the
        scalar engine's ``_mem_group`` serves across every run of the
        group.

        :returns: True when the cycle was served (the caller advances
            the PC); False when the group was split or peeled instead.
        """
        S = self.S
        config = self.config
        is_write, rs, imm, rd = info
        idx = g.idx
        C = S.C
        addrs = (S.regs[idx, :, rs] + imm) & 0xFFFF
        row0 = addrs[0]
        if len(idx) > 1 and not (addrs == row0).all():
            # input-dependent addresses: the subset matching run 0's
            # pattern stays together, the rest re-splits on its own
            # pattern next time around.  No merge — both children sit
            # at this PC on purpose.
            self._flush(g)
            same = (addrs == row0).all(axis=1)
            self.worklist.append(_Group(idx[same], g.pc))
            self.worklist.append(_Group(idx[~same], g.pc))
            return False
        lanes = row0.tolist()
        if max(lanes) >= S.W:
            self._peel(g, None, "fault")    # reference step() raises
            return False
        if config.dm_interleaved:
            nb = config.dm_banks
            banks = [a % nb for a in lanes]
        else:
            bank_words = config.dm_bank_words
            banks = [a // bank_words for a in lanes]
        if len(set(banks)) != C:
            if is_write or not config.dm_broadcast:
                self._peel(g, None, "mem")  # may lose arbitration
                return False
            addr = lanes[0]
            for other in lanes:
                if other != addr:
                    self._peel(g, None, "mem")
                    return False
            # broadcast read: with every core requesting, the rotating
            # priority's winner is the priority holder itself.
            bank = banks[0]
            winner = S.prio[idx, bank]
            S.prio[idx, bank] = (winner + 1) % C
            S.regs[idx, :, rd] = S.dm[idx, addr][:, None]
            g.dm_reads += 1
            g.dm_served += C
            g.executed += 1
            return True
        # distinct banks: every request wins; rotate each bank past its
        # core and serve the whole plane with one 2-D scatter/gather.
        bank_row = np.asarray(banks, dtype=np.int64)
        S.prio[idx[:, None], bank_row[None, :]] = \
            ((S.coreid_row + 1) % C)[None, :]
        if is_write:
            S.dm[idx[:, None], row0[None, :]] = S.regs[idx, :, rd] & 0xFFFF
            g.dm_writes += C
        else:
            S.regs[idx, :, rd] = S.dm[idx[:, None], row0[None, :]]
            g.dm_reads += C
        g.dm_served += C
        g.executed += 1
        return True

    def _sync(self, g: _Group, ins, base: int) -> bool:
        """One vectorized lockstep SINC/SDEC checkpoint read-modify-write.

        All lanes of every run in the group are in lockstep (the batch
        invariant), so each run's barrier exchange is one merged
        two-cycle RMW of all ``C`` cores, the one the scalar lockstep
        burst replays — with every core *running*.
        :func:`~repro.platform.synchronizer.checkpoint_rmw` applies it to
        the group's whole ``(runs,)`` plane of checkpoint words at once.
        A run continues when its RMW is legal and leaves every core
        running: a ``SINC``, or an ``SDEC`` that releases the barrier
        (word cleared, nobody asleep to wake).  Each continuing run's
        per-checkpoint statistics and listener completions are credited
        through ``Synchronizer.note_completion`` at the run's own
        logical cycle.

        Anything else peels that run, untouched, at the checkpoint PC:
        a split (per-core) checkpoint address, an out-of-range word
        (``"fault"`` — the reference raises), or a counter mid-state
        that would put cores to sleep or raise a protocol violation
        (``"sync"`` — the scalar engine arbitrates it exactly).  Locked
        words cannot occur mid-batch: the entry guard refuses a busy
        synchronizer and the batch's own RMWs complete atomically.

        :returns: True when the *whole* group consumed the two cycles
            (the caller advances the PC); False when the group peeled,
            split, or was re-enqueued.
        """
        S = self.S
        idx = g.idx
        C = S.C
        if self.machines[0].synchronizer is None:
            self._peel(g, None, "sync")     # step() raises ExecutionError
            return False
        if base + g.executed + 2 > self.limit:
            self._peel(g, None, "horizon")
            return False
        addrs = (S.rsync[idx] + ins.imm) & MASK       # (runs, cores)
        addr0 = addrs[:, 0]
        uniform = (addrs == addr0[:, None]).all(axis=1)
        in_range = addr0 < S.W
        is_checkout = ins.op is Opcode.SDEC
        coreids = tuple(range(C))
        checkins, checkouts = ((), coreids) if is_checkout else (coreids, ())
        word, _count, released, woken, ok = checkpoint_rmw(
            S.dm[idx, np.where(in_range, addr0, 0)],
            sum(1 << cid for cid in checkins), len(checkins),
            len(checkouts), C)
        cont = uniform & in_range & ok & (released | (not is_checkout))
        enqueue = False
        if not bool(cont.all()):
            self._flush(g)
            bad = ~cont
            faults = np.flatnonzero(bad & uniform & ~in_range)
            if faults.size:
                self._writeback(idx[faults], g.pc, "fault")
            stuck = np.flatnonzero(bad & (~uniform | in_range))
            if stuck.size:
                self._writeback(idx[stuck], g.pc, "sync")
            good = np.flatnonzero(cont)
            if not good.size:
                return False
            addr0 = addr0[good]
            word = word[good]
            woken = woken[good]
            idx = idx[good]
            g = _Group(idx, g.pc)
            enqueue = True
        # -- the merged two-cycle RMW, every remaining run at once -----
        S.dm[idx, addr0] = word
        g.executed += 2
        g.syncs += 1
        g.releases += is_checkout
        g.dm_reads += 1
        g.dm_writes += 1
        # Per-checkpoint statistics and listener completions are scalar
        # per-run state; credit them now, at each run's logical cycle
        # (its trace clock after the RMW's two cycles).  Every
        # continuing run's counter ends at C (SINC) or 0 (SDEC).
        cycle_after = S.start_cycles[idx] + S.d_cycles[idx] + g.executed
        machines = S.machines
        for i, address, cycle, mask in zip(idx.tolist(), addr0.tolist(),
                                           cycle_after.tolist(),
                                           woken.tolist()):
            machines[i].synchronizer.note_completion(
                cycle, address, checkins, checkouts, len(checkins),
                is_checkout, mask, True)
        if enqueue:
            self._flush(g)
            self._enqueue(idx, g.pc + 1)
            return False
        return True

    # -- commit and peel -------------------------------------------------

    def _flush(self, g: _Group) -> None:
        """Credit the group-uniform deltas to the per-run planes."""
        if not g.executed:
            return
        S = self.S
        idx = g.idx
        S.d_cycles[idx] += g.executed
        S.d_blocks[idx] += g.blocks
        if g.dm_reads:
            S.d_dm_reads[idx] += g.dm_reads
        if g.dm_writes:
            S.d_dm_writes[idx] += g.dm_writes
        if g.dm_served:
            S.d_dm_served[idx] += g.dm_served
        if g.syncs:
            S.d_syncs[idx] += g.syncs
            S.d_releases[idx] += g.releases
            g.syncs = 0
            g.releases = 0
        S.width[idx] = np.maximum(S.width[idx], len(idx) * S.C)
        g.executed = 0
        g.blocks = 0
        g.dm_reads = 0
        g.dm_writes = 0
        g.dm_served = 0

    def _peel(self, g: _Group, pcs, reason: str) -> None:
        self._flush(g)
        self._writeback(g.idx, g.pc if pcs is None else pcs, reason)

    def _writeback(self, rows, pcs, reason: str) -> None:
        """Peel runs out of the batch: restore scalar machine state and
        credit the trace with the same batched accounting the scalar
        lockstep burst uses (every vectorized cycle had all ``C`` cores
        active on one broadcast fetch — no stalls, no idle cores)."""
        S = self.S
        C = S.C
        stats = self.stats
        stats.peels[reason] = stats.peels.get(reason, 0) + len(rows)
        uniform = isinstance(pcs, int)
        for row, i in enumerate(rows):
            i = int(i)
            machine = S.machines[i]
            regs = S.regs[i]
            fz, fn = S.fz[i], S.fn[i]
            fc, fv = S.fc[i], S.fv[i]
            rsync, ivec = S.rsync[i], S.ivec[i]
            epc, status = S.epc[i], S.status[i]
            lane_pcs = None if uniform else pcs[row]
            for c, core in enumerate(machine.cores):
                core.regs = regs[c].tolist()
                core.pc = pcs if uniform else int(lane_pcs[c])
                core.flag_z = int(fz[c])
                core.flag_n = int(fn[c])
                core.flag_c = int(fc[c])
                core.flag_v = int(fv[c])
                core.rsync = int(rsync[c])
                core.ivec = int(ivec[c])
                core.epc = int(epc[c])
                core.status = int(status[c])
            machine.dm.words[:] = S.dm[i].tolist()
            machine.dxbar._priority[:] = S.prio[i].tolist()
            engine_stats = machine._engine.stats
            engine_stats.batched_runs = max(engine_stats.batched_runs,
                                            self.N)
            width = int(S.width[i])
            engine_stats.vector_width = max(engine_stats.vector_width,
                                            width)
            stats.max_width = max(stats.max_width, width)
            if reason != "stop":
                engine_stats.peel_count += 1
            cycles = int(S.d_cycles[i])
            if not cycles:
                continue
            vec_blocks = int(S.d_blocks[i])
            engine_stats.vector_blocks += vec_blocks
            engine_stats.vector_cycles += cycles
            stats.vector_cycles += cycles
            stats.vector_blocks += vec_blocks
            diverges = int(S.d_diverges[i])
            if diverges:
                engine_stats.term_diverge += diverges
            # each checkpoint RMW took two of `cycles` but fetched,
            # retired and hit the IM/histogram counters only once
            pairs = int(S.d_syncs[i])
            fetched = cycles - pairs
            trace = machine.trace
            trace.cycles += cycles
            trace.core_active_cycles += cycles * C
            trace.retired_ops += fetched * C
            retired = trace.retired_per_core
            for c in range(C):
                retired[c] += fetched
            trace.im_bank_accesses += fetched
            trace.im_fetches_served += fetched * C
            histogram = trace.lockstep_histogram
            histogram[C] = histogram.get(C, 0) + fetched
            if pairs:
                # every batched SDEC checked out all C cores and
                # released its barrier; every SINC checked all C in
                releases = int(S.d_releases[i])
                trace.sync_rmw_ops += pairs
                trace.sync_checkins += C * (pairs - releases)
                trace.sync_checkouts += C * releases
                trace.sync_wakeups += releases
                engine_stats.sync_fused_rmws += pairs
                # each merged RMW ended a lockstep region at the
                # synchronizer, the vec analog of a term_sync block
                engine_stats.term_sync += pairs
            reads = int(S.d_dm_reads[i])
            writes = int(S.d_dm_writes[i])
            served = int(S.d_dm_served[i])
            if reads:
                trace.dm_bank_reads += reads
            if writes:
                trace.dm_bank_writes += writes
            if served:
                trace.dm_served += served
            machine._quiet = False


def run_batch(machines, *, limit: int | None = None) -> BatchStats:
    """Advance a batch of machines in vectorized lockstep, then peel.

    Every machine that passes :func:`batch_entry_guard` joins a family
    of same-image, same-config, same-entry-PC peers and executes as far
    as the vectorized engine can prove lockstep; at its peel boundary
    its full state is written back, bit-exactly.  Callers finish each
    machine with ``machine.run(max_cycles=...)`` — results (including
    raised errors) are identical to never having batched.

    Rejected machines are untouched.  ``limit`` defaults to the
    smallest ``config.max_cycles`` across the batch and must equal the
    bound the caller will pass to ``machine.run`` for cycle-limit
    errors to surface identically.

    :returns: a :class:`BatchStats` describing what happened.
    """
    stats = BatchStats(requested=len(machines))
    if not machines:
        return stats
    if limit is None:
        limit = min(machine.config.max_cycles for machine in machines)
    families: dict[tuple, list] = {}
    for machine in machines:
        reason = batch_entry_guard(machine, limit)
        if reason is not None:
            stats.rejected += 1
            stats.refusals[reason] = stats.refusals.get(reason, 0) + 1
            continue
        try:
            image = machine.program.digest()
        except Exception:
            image = id(machine._decoded)
        key = (image, machine.config.to_key(), machine.cores[0].pc)
        families.setdefault(key, []).append(machine)
    for family in families.values():
        stats.families += 1
        stats.batched += len(family)
        _FamilyRunner(family, limit, stats).run()
    return stats
