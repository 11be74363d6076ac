"""Superblock fusion: straight-line runs compiled into single closures.

The predecode layer (:mod:`repro.cpu.predecode`) removes per-instruction
*discovery* cost, but the fast engine still pays one Python closure call
— argument tuple, frame, attribute traffic on the ``CoreState`` — per
instruction per core.  For a fixed image the *sequence* of instructions
between control-flow/memory boundaries is just as invariant as each
instruction, so this module compiles every maximal straight-line run
into one **fused function** via ``compile()``/``exec`` codegen:

- registers, flags and special registers the block touches are loaded
  into Python locals once, updated locally by the inlined
  per-instruction statements, and stored back once at the end;
- the PC is written exactly once (the fall-through address for pure
  sequential blocks, or by the inlined terminator);
- the per-instruction statements are rendered from the semantics table
  (:mod:`repro.cpu.semantics`, the ``BLOCK`` target) — the same
  templates the predecode closures and the NumPy lanes are rendered
  from — so a fused call is bit-identical to running the constituent
  instructions through the reference executor back to back (guarded by
  ``tests/cpu/test_semantics.py`` per form and ``tests/cpu/test_blocks.py``
  on randomized straight-line runs).

**Block discovery rules** (following the ``KIND_*`` dispatch classes):
a block is a maximal run of ``KIND_SEQ`` instructions, optionally ended
by exactly one ``KIND_JUMP`` or ``KIND_DIVERGE`` terminator (JMP/CALL/
BCC/JR/CALLR/RETI — inlined, since they only move the PC/LR).  A block
*never* crosses ``KIND_SYNC`` (needs the synchronizer) or ``KIND_STOP``
(changes the core's mode, or an encoding outside the table — such as an
invalid special-register index — that must raise mid-stream exactly
like the reference).  Blocks shorter than :data:`MIN_BLOCK` are not
worth a guard check and stay on the per-instruction path; blocks are
capped at :data:`MAX_BLOCK` to bound generated-source size.

**Memory fusion** — a ``KIND_MEM`` LD/ST normally ends the block
because its D-Xbar outcome depends on the *runtime* cross-core address
pattern.  When the toolchain proved an access shape statically
(:attr:`Program.mem_facts`: ``0`` = core-uniform effective address,
``k`` = coreid-affine with stride ``k``) *and* the platform
configuration makes that shape conflict-free (distinct private banks
per core, or a broadcast read), the access is inlined into the fused
block instead.  The facts are **hints, not trusted proofs**: a fused
memory block is compiled in two phases — a pure ``run(core, words)``
that computes everything (including every effective address) into
Python locals without touching shared state, and a ``commit(core,
out)`` that applies the results — so the engine can re-verify the
actual cross-core address pattern between the phases and abandon the
whole block (committing *nothing*) if a fact turns out wrong at
runtime.  A wrong fact therefore costs a deopt, never exactness.
Memory ops are never fused after a core-state write (``MTSR``/``EI``/
``DI``) nor core-state writes after them, and a load is never fused
after a fused store (stores are deferred to commit, so the load would
read stale memory); uniform stores are only fused single-core.
If-converted hammock arms (:mod:`repro.compiler.ifconv`) are inlined
under the same rules, through the same per-instruction path.

The **cycle cost** of a fused block equals its instruction count — the
engine only calls one when that many lockstep broadcast cycles (or
single-core fetch cycles) are provably uninterrupted, and bulk-credits
the :class:`~repro.platform.trace.ActivityTrace` counters for the whole
run; see ``FastEngine._lockstep_burst``.

Compiled blocks are cached **per image digest** (:func:`table_for`,
keyed on :meth:`Program.digest` — the same content hash the sweep
result cache uses), so every machine running the same built image
shares one :class:`BlockTable`, across sweeps and repeated benchmark
constructions alike.  Memory fusion additionally depends on the
platform's memory geometry, so tables built with a config are keyed on
``(digest, memory-geometry)``; fact-free images share one table across
all configs.  The batch engine's :class:`~repro.cpu.vec.VecTable`
shares the same cache.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import NamedTuple

from .semantics import BLOCK, KIND_DIVERGE, KIND_JUMP, KIND_MEM, \
    KIND_SEQ, KIND_SYNC, Writer, writes_core

MASK = 0xFFFF

#: a fused block must cover at least this many instructions — a shorter
#: run gains nothing over per-instruction closure dispatch.
MIN_BLOCK = 2
#: longest fused run (bounds generated-source size and compile latency).
MAX_BLOCK = 64
#: most if-converted hammocks inlined into one block (the arm-taken
#: bitmask ``_hp`` the engine compares across cores stays a small int).
MAX_PREDS = 8


class FusedBlock(NamedTuple):
    """One compiled superblock.

    :param run: ``run(core)`` — applies the whole block to one core.
        Memory-fused blocks (``mem`` non-empty) instead expose the pure
        phase ``run(core, words)``: it mutates nothing, computes the
        whole block into locals and returns the out tuple ``commit``
        consumes.  The first ``len(mem)`` entries of that tuple are the
        effective addresses of the fused memory ops, in program order,
        for the engine's cross-core re-verification.
    :param length: instructions covered == cycles the block consumes.
    :param end_kind: ``KIND_SEQ`` (fell through), ``KIND_JUMP`` (uniform
        target) or ``KIND_DIVERGE`` (per-core target) — what the engine
        must re-check after calling ``run``.
    :param source: the generated Python source (for tests/debugging).
    :param term: why discovery ended this block — ``'mem'`` (unfusable
        memory op), ``'sync'`` (synchronizer op), ``'stop'`` (mode
        change / unfusable / end of image), ``'diverge'`` (control-flow
        terminator), ``'cap'`` (:data:`MAX_BLOCK`).  The engine
        aggregates these per execution into ``EngineStats.term_*``.
    :param mem: per fused memory op, in program order:
        ``(uniform, is_write)`` — ``uniform`` means the fact claimed a
        core-uniform address, else coreid-affine (distinct banks).
    :param stores: per fused store, in program order:
        ``(addr_index, value_index)`` into the out tuple.  The engine
        applies stores op-major across cores (matching the reference's
        cycle order) before calling ``commit``.
    :param commit: ``commit(core, out)`` — applies registers, flags and
        the PC from the out tuple (memory-fused blocks only).
    :param preds: number of if-converted hammocks inlined into the block
        (see :mod:`repro.compiler.ifconv`).  Predicated blocks are always
        two-phase: the engine must verify every core took the same arms
        (out ``pred_at`` positions equal) before committing anything.
    :param gates: per fused memory op ``j``: ``0`` if unconditional, else
        the ``_hp`` bit of the hammock whose arm contains it — the engine
        skips guard/store/crediting for ops whose arm did not execute.
    :param pred_at: out-tuple index of ``_hp``, the arm-taken bitmask.
    :param cost_at: out-tuple index of ``_cost``, the cycles this
        execution actually costs (taken-path cost per hammock; ``length``
        stays the IM span for the PC advance and the horizon bound).
    :param pred_head: IM address of the first inlined hammock's branch
        (``-1`` without hammocks).  When the cores disagree on an arm,
        the engine runs the block's instructions before it one at a
        time and lets that branch split the cores.
    """

    run: object
    length: int
    end_kind: int
    source: str
    term: str = "stop"
    mem: tuple = ()
    stores: tuple = ()
    commit: object = None
    preds: int = 0
    gates: tuple = ()
    pred_at: int = -1
    cost_at: int = -1
    pred_head: int = -1


class MemEnv(NamedTuple):
    """Everything block compilation needs to fuse memory accesses.

    Bundles the image's static address-shape facts with the platform's
    memory geometry.  Only the geometry participates in cache keys
    (:func:`table_for`) — the facts are part of the image digest.
    """

    facts: dict
    num_cores: int
    dm_banks: int
    dm_bank_words: int
    dm_interleaved: bool
    dm_broadcast: bool

    @property
    def dm_words(self) -> int:
        return self.dm_banks * self.dm_bank_words

    @classmethod
    def from_config(cls, facts: dict, config) -> "MemEnv":
        return cls(facts, config.num_cores, config.dm_banks,
                   config.dm_bank_words, config.dm_interleaved,
                   config.dm_broadcast)


def _servable(stride: int, is_write: bool, env: MemEnv) -> bool:
    """Can this access shape be served conflict-free under ``env``?

    A *static* screen only — the engine re-checks the actual addresses
    at every execution, so this gate trades fusion opportunity for
    deopt risk, never exactness.
    """
    cores = env.num_cores
    if stride == 0:
        # Core-uniform address: single-core it is a private access; on
        # multi-core only a broadcast read is conflict-free.
        if cores == 1:
            return True
        return not is_write and env.dm_broadcast
    if cores == 1:
        return True
    if env.dm_interleaved:
        banks = {(cid * stride) % env.dm_banks for cid in range(cores)}
        return len(banks) == cores
    # Contiguous mapping: coreid-affine addresses land in distinct banks
    # for every base iff the stride is a non-zero whole number of banks.
    return stride % env.dm_bank_words == 0 and stride >= env.dm_bank_words


def joinable(rec, pc: int, env: MemEnv | None, *, mem: bool, store: bool,
             core_writes: bool, arm: bool = False) -> bool:
    """Can the SEQ/MEM record ``rec`` at ``pc`` join a block so far
    holding fused memory ops (``mem``), a deferred store (``store``) or a
    core-state write (``core_writes``)?  ``arm``: inside a hammock arm.

    Core-state writes would escape the rollback of a two-phase block, so
    they may neither follow a fused memory op nor sit in a predicated
    arm, and no memory op may follow them; a memory op needs a servable
    address-shape fact, and no load may follow a deferred store.
    """
    kind, info, ins = rec
    if kind == KIND_SEQ:
        return not ((mem or arm) and writes_core(ins))
    if kind != KIND_MEM or env is None or core_writes:
        return False
    fact = env.facts.get(pc)
    is_write = info[0]
    return (fact is not None and (is_write or not store)
            and _servable(fact, is_write, env))


def arm_fits(h, decoded: list, env: MemEnv | None, store: bool = False,
             core_writes: bool = False) -> bool:
    """Can every instruction of hammock ``h``'s arm be inlined
    predicated, given the block state it would be inlined into?"""
    for pc in range(h.arm_start, h.arm_start + h.arm_len):
        rec = decoded[pc]
        if not joinable(rec, pc, env, mem=True, store=store,
                        core_writes=core_writes, arm=True):
            return False
        store = store or (rec[0] == KIND_MEM and rec[1][0])
    return True


# ---------------------------------------------------------------------------
# Code generation
# ---------------------------------------------------------------------------

def _attr(local: str) -> str:
    """Where state local ``local`` lives on the core."""
    if local[0] == "r":
        return f"regs[{local[1:]}]"
    if local[0] == "f":
        return f"core.flag_{local[1]}"
    return f"core.{local[2:]}"


class _Block:
    """One superblock under construction."""

    def __init__(self, env: MemEnv | None):
        self.env = env
        self.w = Writer(BLOCK)
        #: per fused memory op: (uniform, is_write), and its _hp gate bit
        self.mem: list[tuple[bool, bool]] = []
        self.gates: list[int] = []
        self.stores: list[int] = []
        self.core_writes = False

    def add(self, rec, pc: int, gate: int = 0) -> None:
        """Inline the SEQ or memory-fused record ``rec`` at ``pc``."""
        kind, info, ins = rec
        w = self.w
        if kind == KIND_SEQ:
            w.inline(ins, pc)
            self.core_writes = self.core_writes or writes_core(ins)
            return
        j = len(self.mem)
        is_write, rs, imm, rd = info
        w.emit(f"_a{j} = ({w.reg(rs)} + {imm & MASK}) & 65535")
        if is_write:
            # Deferred store: snapshot the value; probe the range here
            # so the reference replays the fault, exactly like an
            # out-of-range load.
            w.emit(f"if _a{j} >= {self.env.dm_words}: raise IndexError")
            w.emit(f"_s{j} = {w.reg(rd)} & 65535")
            self.stores.append(j)
        else:
            # words is never mutated during the pure phase, so the
            # natural IndexError doubles as the range guard.
            w.emit(f"{w.reg(rd, write=True)} = words[_a{j}]")
        self.mem.append((self.env.facts[pc] == 0, is_write))
        self.gates.append(gate)

    def hammock(self, h, decoded: list, cond, bit: int) -> None:
        """Inline hammock ``h`` as an ``if``/``else`` on its branch."""
        w = self.w
        taken = w.taken(cond)
        w.emit(f"if {taken if h.arm_on_taken else 'not ' + taken}:")
        w.indent = "    "
        w.emit(f"_hp |= {bit}")
        first = len(self.mem)
        for pc in range(h.arm_start, h.arm_start + h.arm_len):
            self.add(decoded[pc], pc, bit)
        arm_cost, skip_cost = (
            (h.cost_taken, h.cost_not_taken) if h.arm_on_taken
            else (h.cost_not_taken, h.cost_taken))
        w.emit(f"_c += {arm_cost}")
        w.indent = ""
        w.emit("else:")
        w.indent = "    "
        # Sentinels keep the out tuple's layout static: a skipped arm's
        # memory ops report address -1 and value 0, and the engine's
        # gate bits skip them.
        for j in range(first, len(self.mem)):
            w.emit(f"_a{j} = -1")
            if self.mem[j][1]:
                w.emit(f"_s{j} = 0")
        w.emit(f"_c += {skip_cost}")
        w.indent = ""

    def source(self, end_pc: str, lead: list | None) -> str:
        """``run`` (one-phase) or ``run``/``commit`` (two-phase) source.

        ``lead`` is None for one-phase blocks; else the pure phase's
        leading out-tuple entries (fused addresses in op order, deferred
        store values, ``_hp``/``_cost``), which the next PC and the
        written state locals follow.
        """
        w = self.w
        touched = sorted(w.touched)
        written = sorted(w.written)
        entry = ["    regs = core.regs"] if any(
            name[0] == "r" for name in touched) else []
        entry += [f"    {name} = {_attr(name)}" for name in touched]
        if lead is None:
            return "\n".join(
                ["def run(core):", *entry, *w.body,
                 f"    core.pc = {end_pc}",
                 *[f"    {_attr(name)} = {name}" for name in written]]) + "\n"
        out = lead + [end_pc] + written
        lines = ["def run(core, words):", *entry, *w.body,
                 f"    return ({', '.join(out)},)", "",
                 "def commit(core, out):"]
        if any(name[0] == "r" for name in written):
            lines.append("    regs = core.regs")
        lines.append(f"    core.pc = out[{len(lead)}]")
        lines += [f"    {_attr(name)} = out[{pos}]"
                  for pos, name in enumerate(written, len(lead) + 1)]
        return "\n".join(lines) + "\n"


def compile_block(decoded: list, start: int, env: MemEnv | None = None,
                  hammocks: dict | None = None) -> FusedBlock | None:
    """Compile the superblock beginning at IM address ``start``.

    ``decoded`` is the program's predecoded record list (index ==
    address).  ``env`` supplies the static address-shape facts and the
    memory geometry; without it (or without a fact for an address) a
    ``KIND_MEM`` instruction ends the block exactly as before.
    ``hammocks`` supplies the image's if-conversion facts
    (:attr:`Program.hammocks`): a conditional branch heading a fusable
    hammock is inlined as a predicated ``if``/``else`` instead of ending
    the block, with per-path cycle costs accumulated into ``_cost`` and
    the taken-arm bitmask ``_hp`` exposed for the engine's cross-core
    agreement check.  Returns ``None`` when no fusable run of at least
    :data:`MIN_BLOCK` instructions begins there.
    """
    im_len = len(decoded)
    if start >= im_len:
        return None
    b = _Block(env)
    w = b.w
    length = 0
    plain = 0                     # unconditional cycles (cost baseline)
    end_kind = KIND_SEQ
    term = "stop"
    preds = 0
    pred_head = -1
    pc = start
    while pc < im_len:
        if length >= MAX_BLOCK:
            term = "cap"
            break
        rec = decoded[pc]
        kind = rec[0]
        if kind == KIND_SEQ or kind == KIND_MEM:
            if not joinable(rec, pc, env, mem=bool(b.mem),
                            store=bool(b.stores),
                            core_writes=b.core_writes):
                if kind == KIND_MEM:
                    term = "mem"
                break
            b.add(rec, pc)
            length += 1
            plain += 1
            pc += 1
            continue
        h = hammocks.get(pc) if hammocks and kind == KIND_DIVERGE else None
        if (h is not None and preds < MAX_PREDS
                and length + h.span <= MAX_BLOCK
                and arm_fits(h, decoded, env, bool(b.stores),
                             b.core_writes)):
            if not preds:
                w.emit("_hp = 0")
                w.emit("_c = 0")
                pred_head = pc
            b.hammock(h, decoded, rec[2].cond, 1 << preds)
            preds += 1
            length += h.span
            pc = h.join
            continue
        if kind in (KIND_JUMP, KIND_DIVERGE) and length >= 1:
            w.emit(f"_pc = {w.inline(rec[2], pc)}")
            length += 1
            plain += 1
            end_kind = kind
            term = "diverge"
        elif kind == KIND_SYNC:
            term = "sync"
        break
    if length < MIN_BLOCK:
        return None
    end_pc = str(start + length) if end_kind == KIND_SEQ else "_pc"
    mem = tuple(b.mem)
    lead = None                   # one-phase unless memory or predicates
    pred_at = cost_at = -1
    if mem or preds:
        lead = [f"_a{j}" for j in range(len(mem))]
        lead += [f"_s{j}" for j in b.stores]
        if preds:
            w.emit(f"_cost = {plain} + _c")
            pred_at = len(lead)
            cost_at = pred_at + 1
            lead += ["_hp", "_cost"]
    source = b.source(end_pc, lead)
    namespace: dict = {}
    exec(compile(source, f"<fused@{start}+{length}>", "exec"), namespace)
    if lead is None:
        return FusedBlock(namespace["run"], length, end_kind, source, term)
    stores = tuple((j, len(mem) + position)
                   for position, j in enumerate(b.stores))
    return FusedBlock(namespace["run"], length, end_kind, source, term,
                      mem, stores, namespace["commit"], preds,
                      tuple(b.gates) if preds else (), pred_at, cost_at,
                      pred_head)


# ---------------------------------------------------------------------------
# Per-image block tables and the digest-keyed cache
# ---------------------------------------------------------------------------

class BlockTable:
    """Lazily-compiled fused blocks for one program image.

    Blocks are compiled on first request per start address (the engine
    only ever asks for addresses it is about to execute, so cold code
    costs nothing) and memoized in :attr:`blocks` — ``None`` entries
    mean "no fusable block starts here", so the engine's dict probe is
    a single lookup either way.
    """

    __slots__ = ("digest", "blocks", "_decoded", "_env", "_hammocks")

    #: the block compiler this table memoizes
    compile = staticmethod(compile_block)

    def __init__(self, decoded: list, digest: str | None = None,
                 env: MemEnv | None = None,
                 hammocks: dict | None = None):
        self.digest = digest
        self._decoded = decoded
        self._env = env
        self._hammocks = hammocks
        #: start address -> compiled block | None, filled lazily
        self.blocks: dict = {}

    def at(self, start: int):
        """The block starting at ``start`` (compiling if needed)."""
        try:
            return self.blocks[start]
        except KeyError:
            block = self.compile(self._decoded, start, self._env,
                                 self._hammocks)
            self.blocks[start] = block
            return block

    def compiled(self) -> int:
        """Number of distinct blocks compiled so far."""
        return sum(1 for block in self.blocks.values() if block is not None)


#: cache key -> table, LRU-bounded.  Sized for sweeps: one entry per
#: distinct built image (x memory geometry for fact-carrying images, x
#: table class), and a whole ablation grid uses well under this.
_TABLE_LIMIT = 64
_tables: "OrderedDict[tuple, BlockTable]" = OrderedDict()


def table_for(program, config=None) -> BlockTable:
    """The shared :class:`BlockTable` for ``program``'s built image (see
    :func:`cached_table`)."""
    return cached_table(BlockTable, program, config)


def cached_table(cls, program, config=None):
    """The shared ``cls`` table — a :class:`BlockTable`, or the batch
    engine's :class:`~repro.cpu.vec.VecTable` — for ``program``'s built
    image.

    Keyed on :meth:`Program.digest`, so two independently-built but
    bit-identical images (e.g. the same kernel compiled in two sweep
    processes' requests) share one compiled table, and any image change
    — hammock facts included — lands on a fresh key: the cache can never
    serve stale blocks.

    ``config`` (a :class:`~repro.platform.config.PlatformConfig`)
    enables memory fusion for images carrying ``mem_facts``: whether a
    proven access shape is conflict-free depends on the memory
    geometry, so such tables are keyed on ``(digest, geometry)``.
    Without a config — or for fact-free images, whose blocks cannot
    differ across geometries — one table per digest is shared by all
    callers.  Falls back to a private, unshared table if the image
    cannot be encoded (synthetic test programs).
    """
    env = None
    facts = getattr(program, "mem_facts", None)
    if config is not None and facts:
        env = MemEnv.from_config(facts, config)
    hammocks = getattr(program, "hammocks", None)
    try:
        digest = program.digest()
    except Exception:
        return cls(program.predecoded(), None, env, hammocks)
    key = (cls, digest) if env is None else (cls, digest) + tuple(env[1:])
    table = _tables.get(key)
    if table is None:
        if len(_tables) >= _TABLE_LIMIT:
            _tables.popitem(last=False)
        table = _tables[key] = cls(program.predecoded(), digest, env,
                                   hammocks)
    else:
        _tables.move_to_end(key)
    return table
