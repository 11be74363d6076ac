"""Predecoded dispatch records for the fast simulation engine.

:func:`execute_plain` re-discovers what an instruction *is* on every
simulated cycle: it walks an ``Opcode`` if/elif chain, re-reads operand
fields off the :class:`~repro.isa.instruction.Instruction`, and allocates
an :class:`~repro.cpu.alu.AluResult` per ALU operation.  For a fixed
program image all of that work is invariant, so the fast engine compiles
each instruction **once**, at machine construction, into a dispatch
record:

``(kind, payload, ins)`` where

- ``kind`` is a small-int dispatch class (see the ``KIND_*`` constants
  of :mod:`repro.cpu.semantics`) telling the engine how the instruction
  interacts with the platform — whether it needs crossbar arbitration,
  whether it can change the core's PC non-uniformly, whether it can
  change the core's mode;
- ``payload`` is, for plain instructions, a closure ``run(core)`` that
  applies the instruction's full architectural effect (registers, flags,
  PC) to one :class:`~repro.cpu.state.CoreState` with all operands
  pre-bound; for LD/ST it is the ``(is_write, rs, imm, rd)`` operand
  tuple the engine's lockstep memory cycle uses; for SINC/SDEC it is
  ``None``; and
- ``ins`` is the original :class:`~repro.isa.instruction.Instruction`.

The closures are rendered from the semantics table
(:data:`~repro.cpu.semantics.FORMS`): each form's statement templates
become one closure *factory*, compiled once per process, whose
parameters are the form's folded operand constants — so a closure
performs no enum comparison, no operand attribute walk and no
``AluResult`` allocation at execution time, and instantiating one per
distinct instruction costs a function call.  ``SLEEP`` and ``HALT``
render like every other form (a mode write plus the PC); only
encodings outside the table (invalid special registers, undefined
sub-ops) get a closure that calls :func:`execute_plain` itself, so
their effects and errors match the reference by construction.
``tests/cpu/test_semantics.py`` checks every form differentially
against the reference executor.

Memory (``LD``/``ST``) and synchronizer (``SINC``/``SDEC``) instructions
complete through crossbar arbitration; the cycle engine owns their
execution.
"""

from __future__ import annotations

from ..isa.instruction import Instruction
from ..isa.spec import Opcode
from .executor import execute_plain
from .semantics import (  # noqa: F401  (KIND_* re-exported for engines)
    BURSTABLE,
    CLOSURE,
    FORMS,
    KIND_DIVERGE,
    KIND_JUMP,
    KIND_MEM,
    KIND_SEQ,
    KIND_STOP,
    KIND_SYNC,
    form_key,
    rendered,
)
from .state import CoreMode

#: form key -> (closure factory, folded-constants function), compiled
#: once per process
_factories: dict = {}


def _factory(ins: Instruction, key: tuple) -> tuple:
    r = rendered(ins, CLOSURE)
    body = [*r.lines,
            "core.pc += 1" if r.pc is None else f"core.pc = {r.pc}"]
    if any("regs[" in line for line in body):
        body.insert(0, "regs = core.regs")
    params = ", ".join(f"k{i}" for i in range(r.slots))
    source = (f"def make({params}):\n    def run(core):\n"
              + "".join(f"        {line}\n" for line in body)
              + "    return run\n")
    # the mode names a mode-changing form writes
    namespace: dict = {mode.name: mode for mode in CoreMode}
    exec(compile(source, f"<form {key[0].name}>", "exec"), namespace)
    entry = _factories[key] = (namespace["make"], r.values)
    return entry


def compile_instruction(ins: Instruction) -> tuple:
    """Compile one instruction into its ``(kind, payload, ins)`` record."""
    key = form_key(ins)
    form = FORMS.get(key)
    if form is None:
        # outside the table: the reference decides (or raises)
        return KIND_STOP, lambda core: execute_plain(core, ins), ins
    kind = form.kind
    if kind == KIND_MEM:
        # operand tuple for the engine's inline lockstep memory cycle
        return kind, (ins.op is Opcode.ST, ins.rs, ins.imm, ins.rd), ins
    if kind == KIND_SYNC:
        return kind, None, ins
    # a plain or mode-changing instruction: its form's closure factory,
    # bound to the instruction's folded operand constants
    make, values = _factories.get(key) or _factory(ins, key)
    return kind, make(*values(ins.rd, ins.rs, ins.rt, ins.imm, 0)), ins


def predecode(instructions) -> list[tuple]:
    """Compile an instruction stream into dispatch records.

    Identical instructions (NOPs, repeated loop bodies emitted by the
    compiler) share one record, so a large image predecodes into few
    distinct closures.
    """
    cache: dict[Instruction, tuple] = {}
    records = []
    for ins in instructions:
        record = cache.get(ins)
        if record is None:
            record = cache[ins] = compile_instruction(ins)
        records.append(record)
    return records
