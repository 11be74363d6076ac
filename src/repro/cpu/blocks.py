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
*never* crosses a ``KIND_MEM`` LD/ST (its D-Xbar outcome depends on the
runtime cross-core address pattern, which the engine's group LD/ST path
decides), ``KIND_SYNC`` (needs the synchronizer) or ``KIND_STOP``
(changes the core's mode, or an encoding outside the table — such as an
invalid special-register index — that must raise mid-stream exactly
like the reference).  Blocks shorter than :data:`MIN_BLOCK` are not
worth a guard check and stay on the per-instruction path; blocks are
capped at :data:`MAX_BLOCK` to bound generated-source size.

The **cycle cost** of a fused block equals its instruction count — the
engine only calls one when that many lockstep broadcast cycles (or
single-core fetch cycles) are provably uninterrupted, and bulk-credits
the :class:`~repro.platform.trace.ActivityTrace` counters for the whole
run; see ``FastEngine._lockstep_burst``.

Compiled blocks are cached **per image digest** (:func:`table_for`,
keyed on :meth:`Program.digest` — the same content hash the sweep
result cache uses), so every machine running the same built image
shares one :class:`BlockTable` on every platform configuration, across
sweeps and repeated benchmark constructions alike.  The batch engine's
:class:`~repro.cpu.vec.VecTable` shares the same cache.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import NamedTuple

from .semantics import BLOCK, KIND_DIVERGE, KIND_JUMP, KIND_MEM, \
    KIND_SEQ, KIND_SYNC, Writer

#: a fused block must cover at least this many instructions — a shorter
#: run gains nothing over per-instruction closure dispatch.
MIN_BLOCK = 2
#: longest fused run (bounds generated-source size and compile latency).
MAX_BLOCK = 64


class FusedBlock(NamedTuple):
    """One compiled superblock.

    :param run: ``run(core)`` — applies the whole block to one core.
    :param length: instructions covered == cycles the block consumes.
    :param end_kind: ``KIND_SEQ`` (fell through), ``KIND_JUMP`` (uniform
        target) or ``KIND_DIVERGE`` (per-core target) — what the engine
        must re-check after calling ``run``.
    :param source: the generated Python source (for tests/debugging).
    :param term: why discovery ended this block — ``'mem'`` (an LD/ST),
        ``'sync'`` (synchronizer op), ``'stop'`` (mode change /
        unfusable / end of image), ``'diverge'`` (control-flow
        terminator), ``'cap'`` (:data:`MAX_BLOCK`).  The engine
        aggregates these per execution into ``EngineStats.term_*``.
    """

    run: object
    length: int
    end_kind: int
    source: str
    term: str = "stop"


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


def compile_block(decoded: list, start: int) -> FusedBlock | None:
    """Compile the superblock beginning at IM address ``start``.

    ``decoded`` is the program's predecoded record list (index ==
    address).  Returns ``None`` when no fusable run of at least
    :data:`MIN_BLOCK` instructions begins there.
    """
    im_len = len(decoded)
    if start >= im_len:
        return None
    w = Writer(BLOCK)
    length = 0
    end_kind = KIND_SEQ
    term = "stop"
    pc = start
    while pc < im_len:
        if length >= MAX_BLOCK:
            term = "cap"
            break
        kind, _, ins = decoded[pc]
        if kind == KIND_SEQ:
            w.inline(ins, pc)
            length += 1
            pc += 1
            continue
        if kind in (KIND_JUMP, KIND_DIVERGE) and length >= 1:
            w.emit(f"_pc = {w.inline(ins, pc)}")
            length += 1
            end_kind = kind
            term = "diverge"
        elif kind == KIND_SYNC:
            term = "sync"
        elif kind == KIND_MEM:
            term = "mem"
        break
    if length < MIN_BLOCK:
        return None
    end_pc = str(start + length) if end_kind == KIND_SEQ else "_pc"
    entry = ["    regs = core.regs"] if any(
        name[0] == "r" for name in w.touched) else []
    entry += [f"    {name} = {_attr(name)}" for name in sorted(w.touched)]
    source = "\n".join(
        ["def run(core):", *entry, *w.body, f"    core.pc = {end_pc}",
         *[f"    {_attr(name)} = {name}" for name in sorted(w.written)]]
    ) + "\n"
    namespace: dict = {}
    exec(compile(source, f"<fused@{start}+{length}>", "exec"), namespace)
    return FusedBlock(namespace["run"], length, end_kind, source, term)


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

    __slots__ = ("digest", "blocks", "_decoded")

    #: the block compiler this table memoizes
    compile = staticmethod(compile_block)

    def __init__(self, decoded: list, digest: str | None = None):
        self.digest = digest
        self._decoded = decoded
        #: start address -> compiled block | None, filled lazily
        self.blocks: dict = {}

    def at(self, start: int):
        """The block starting at ``start`` (compiling if needed)."""
        try:
            return self.blocks[start]
        except KeyError:
            block = self.compile(self._decoded, start)
            self.blocks[start] = block
            return block

    def compiled(self) -> int:
        """Number of distinct blocks compiled so far."""
        return sum(1 for block in self.blocks.values() if block is not None)


#: cache key -> table, LRU-bounded.  Sized for sweeps: one entry per
#: distinct built image and table class, and a whole ablation grid uses
#: well under this.
_TABLE_LIMIT = 64
_tables: "OrderedDict[tuple, BlockTable]" = OrderedDict()


def table_for(program) -> BlockTable:
    """The shared :class:`BlockTable` for ``program``'s built image (see
    :func:`cached_table`)."""
    return cached_table(BlockTable, program)


def cached_table(cls, program):
    """The shared ``cls`` table — a :class:`BlockTable`, or the batch
    engine's :class:`~repro.cpu.vec.VecTable` — for ``program``'s built
    image.

    Keyed on ``(cls, Program.digest())``, so two independently-built
    but bit-identical images (e.g. the same kernel compiled in two sweep
    processes' requests) share one compiled table, and any image change
    lands on a fresh key: the cache can never serve stale blocks.  Falls
    back to a private, unshared table if the image cannot be encoded
    (synthetic test programs).
    """
    try:
        digest = program.digest()
    except Exception:
        return cls(program.predecoded())
    key = (cls, digest)
    table = _tables.get(key)
    if table is None:
        if len(_tables) >= _TABLE_LIMIT:
            _tables.popitem(last=False)
        table = _tables[key] = cls(program.predecoded(), digest)
    else:
        _tables.move_to_end(key)
    return table
