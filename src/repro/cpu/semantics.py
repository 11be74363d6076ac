"""One table of ``ulp16`` instruction semantics, rendered three ways.

The fast engines keep every core on one instruction stream, and each of
their layers needs the *effect* of an instruction in a different shape:

- :mod:`repro.cpu.predecode` — a closure ``run(core)`` per distinct
  instruction, applying its effect to one
  :class:`~repro.cpu.state.CoreState`;
- :mod:`repro.cpu.blocks` — Python source for a fused superblock, with
  the registers, flags and special registers it touches held in locals;
- :mod:`repro.cpu.vec` — NumPy source applying the effect to every core
  of every run of a batch at once.

:data:`FORMS` states each instruction *form* once — the opcode plus any
sub-op, branch condition, special register or zero shift amount that
changes its shape — as its dispatch kind and a few statement templates;
:func:`rendered` turns a form into any of the three shapes, and
:class:`Writer` strings renderings together into block source.

Template vocabulary.  Every template is valid on Python ints *and* on
NumPy arrays, so one text serves the scalar and the vector renderers:

- ``R[x]`` — general register ``x``, read or written;
- ``fz fn fc fv`` — the flags; a flag write takes a comparison (a
  boolean) or a 0/1 bit;
- ``rsync ivec epc status coreid ncores`` — the special registers;
- ``mode`` — the core's mode, written ``SLEEPING`` or ``HALTED``
  (closure target only: blocks end before the ``KIND_STOP`` forms that
  write it, and the batch engine peels on them);
- ``rd rs rt imm`` — the instruction's operand fields and ``pc`` its
  address; a subexpression over these alone is folded to a constant
  when the form is instantiated (for closures ``pc`` stays dynamic);
- ``sel(c, a, b)`` — ``a`` where ``c`` holds, else ``b``;
- ``PC = e`` — the next PC (no ``PC`` statement: fall through);
- ``_name`` — a temporary.

:mod:`repro.cpu.executor` and :mod:`repro.cpu.alu` are deliberately
*not* derived from this table: they are the independent reference every
rendering is differentially tested against.  Encodings outside the table
(invalid special registers, undefined sub-ops) predecode to a closure
that calls :func:`~repro.cpu.executor.execute_plain`, so their effects
and errors match the reference by construction.

Adding an opcode: add its entry to :data:`FORMS` and its reference
semantics to :func:`~repro.cpu.executor.execute_plain`; the three
renderers and ``tests/cpu/test_semantics.py`` pick it up from there.
"""

from __future__ import annotations

import ast
from typing import NamedTuple

from ..isa.spec import READONLY_SREGS, Cond, Opcode, ShiftOp, SpecialReg, \
    SysOp

# ---------------------------------------------------------------------------
# Dispatch classes
# ---------------------------------------------------------------------------

#: Plain instruction; every executing core's PC advances to ``pc + 1``.
KIND_SEQ = 0
#: Plain control flow with a *uniform* target (JMP/CALL): cores executing
#: it in lockstep land on the same PC.
KIND_JUMP = 1
#: Plain control flow whose target depends on per-core state (BCC/JR/
#: CALLR/RETI): lockstep cores may diverge and the engine must re-check.
KIND_DIVERGE = 2
#: Instruction that changes the core's *mode* (HALT/SLEEP): the running
#: set changes, so a burst runs it as its last cycle.  Encodings outside
#: the table predecode to this kind too; the engine defers those to
#: ``Machine.step``.
KIND_STOP = 3
#: LD/ST — completes through D-Xbar arbitration.
KIND_MEM = 4
#: SINC/SDEC — completes through the synchronizer.
KIND_SYNC = 5

#: kinds the lockstep burst may execute directly (``kind <= BURSTABLE``).
BURSTABLE = KIND_DIVERGE


class Form(NamedTuple):
    """One instruction form: dispatch kind plus statement templates."""

    kind: int
    body: tuple = ()


# ---------------------------------------------------------------------------
# The table
# ---------------------------------------------------------------------------

#: branch-taken test of each condition, over the flags
TAKEN = {
    Cond.EQ: "fz != 0",
    Cond.NE: "fz == 0",
    Cond.LT: "fn != fv",
    Cond.GE: "fn == fv",
    Cond.LE: "(fz != 0) | (fn != fv)",
    Cond.GT: "(fz == 0) & (fn == fv)",
    Cond.LTU: "fc == 0",
    Cond.GEU: "fc != 0",
}

_ZN = ("fz = _v == 0", "fn = _v >> 15")


def _alu(value: str) -> tuple:
    """``rd <- value`` with the Z/N update every ALU result makes."""
    return (f"_v = {value}", "R[rd] = _v") + _ZN


def _add(b: str, carry: str = "") -> tuple:
    return ("_a = R[rs]", f"_b = {b}", f"_t = _a + _b{carry}",
            *_alu("_t & 65535"), "fc = _t >> 16",
            "fv = ((_a ^ _v) & ~(_a ^ _b)) >> 15")


def _sub(a: str, b: str, borrow: str = "", write: bool = True) -> tuple:
    """``a - b`` (ARM-style carry: C = no borrow); CMP forms skip ``rd``."""
    return (f"_a = {a}", f"_b = {b}", f"_t = _a - _b{borrow}",
            "_v = _t & 65535", *(("R[rd] = _v",) if write else ()), *_ZN,
            "fc = _t >= 0", "fv = ((_a ^ _b) & (_a ^ _v)) >> 15")


#: per shift kind, the result and the carry-out (last bit shifted out)
#: of shifting ``_a`` (``_s``: ``_a`` sign-extended) by ``_n`` >= 1
_SHIFTS = {
    ShiftOp.SLLI: ("(_a << _n) & 65535", "(_a << _n) >> 16 & 1"),
    ShiftOp.SRLI: ("_a >> _n", "(_a << 1 >> _n) & 1"),
    ShiftOp.SRAI: ("(_s >> _n) & 65535", "(_s << 1 >> _n) & 1"),
}


def _shift(kind: ShiftOp, src: str, amount: str | None) -> tuple:
    """Shift ``src`` by an immediate ``amount`` (1..15), or by ``R[rt]``
    when ``amount`` is None — then a zero amount leaves C untouched."""
    value, carry = _SHIFTS[kind]
    body = [f"_a = {src}"]
    if amount is None:
        body.append("_n = R[rt] & 15")
        carry = f"sel(_n != 0, {carry}, fc)"
    else:
        value = value.replace("_n", amount)
        carry = carry.replace("_n", amount)
    if kind is ShiftOp.SRAI:
        body.append("_s = _a - ((_a & 32768) << 1)")
    return (*body, *_alu(value), f"fc = {carry}")


def _table() -> dict:
    seq = lambda *body: Form(KIND_SEQ, body)    # noqa: E731
    link = "R[7] = (pc + 1) & 65535"
    forms = {
        (Opcode.ADD, None): seq(*_add("R[rt]")),
        (Opcode.ADC, None): seq(*_add("R[rt]", " + fc")),
        (Opcode.ADDI, None): seq(*_add("imm & 65535")),
        (Opcode.SUB, None): seq(*_sub("R[rs]", "R[rt]")),
        (Opcode.SBC, None): seq(*_sub("R[rs]", "R[rt]", " - 1 + fc")),
        (Opcode.CMP, None): seq(*_sub("R[rd]", "R[rs]", write=False)),
        (Opcode.CMPI, None): seq(*_sub("R[rd]", "imm & 65535",
                                       write=False)),
        (Opcode.AND, None): seq(*_alu("R[rs] & R[rt]")),
        (Opcode.OR, None): seq(*_alu("R[rs] | R[rt]")),
        (Opcode.XOR, None): seq(*_alu("R[rs] ^ R[rt]")),
        (Opcode.MUL, None): seq(*_alu("(R[rs] * R[rt]) & 65535")),
        (Opcode.MULH, None): seq(
            "_a = R[rs]", "_b = R[rt]",
            "_a = _a - ((_a & 32768) << 1)", "_b = _b - ((_b & 32768) << 1)",
            *_alu("(_a * _b) >> 16 & 65535")),
        (Opcode.SLL, None): seq(*_shift(ShiftOp.SLLI, "R[rs]", None)),
        (Opcode.SRL, None): seq(*_shift(ShiftOp.SRLI, "R[rs]", None)),
        (Opcode.SRA, None): seq(*_shift(ShiftOp.SRAI, "R[rs]", None)),
        # a zero immediate shift keeps the value and C: Z/N only
        (Opcode.SHI, None): seq("_v = R[rd]", *_ZN),
        (Opcode.MOV, None): seq("R[rd] = R[rs]"),
        (Opcode.LDI, None): seq("R[rd] = imm & 65535"),
        (Opcode.LUI, None): seq("R[rd] = (imm << 8) & 65535"),
        (Opcode.ORI, None): seq("R[rd] = R[rd] | (imm & 255)"),
        (Opcode.SYS, SysOp.NOP): seq(),
        (Opcode.SYS, SysOp.EI): seq("status = status | 1"),
        (Opcode.SYS, SysOp.DI): seq("status = status & 65534"),
        (Opcode.SYS, SysOp.HALT): Form(KIND_STOP, ("mode = HALTED",)),
        (Opcode.SYS, SysOp.SLEEP): Form(KIND_STOP, ("mode = SLEEPING",)),
        (Opcode.SYS, SysOp.RETI): Form(
            KIND_DIVERGE, ("PC = epc", "status = status | 1")),
        (Opcode.JMP, None): Form(KIND_JUMP, ("PC = imm",)),
        (Opcode.CALL, None): Form(KIND_JUMP, (link, "PC = imm")),
        (Opcode.JR, None): Form(KIND_DIVERGE, ("PC = R[rs]",)),
        # the LR write precedes the target read: CALLR R7 jumps to the
        # new LR, as in the reference
        (Opcode.CALLR, None): Form(KIND_DIVERGE, (link, "PC = R[rs]")),
        (Opcode.LD, None): Form(KIND_MEM),
        (Opcode.ST, None): Form(KIND_MEM),
        (Opcode.SINC, None): Form(KIND_SYNC),
        (Opcode.SDEC, None): Form(KIND_SYNC),
    }
    for kind in ShiftOp:
        forms[Opcode.SHI, kind] = seq(*_shift(kind, "R[rd]", "(imm & 15)"))
    for sr in SpecialReg:
        name = sr.name.lower()
        forms[Opcode.MFSR, sr] = seq(f"R[rd] = {name}")
        # writes to the hard-wired identity registers are ignored
        forms[Opcode.MTSR, sr] = (seq() if sr in READONLY_SREGS
                                  else seq(f"{name} = R[rs] & 65535"))
    for cond, taken in TAKEN.items():
        forms[Opcode.BCC, cond] = Form(
            KIND_DIVERGE, (f"PC = sel({taken}, pc + (imm + 1), pc + 1)",))
    return forms


#: form key (see :func:`form_key`) -> :class:`Form`
FORMS: dict = _table()


#: the instruction field that selects the form, per opcode that has one
_SELECTORS = {Opcode.SYS: "sub", Opcode.SHI: "sub", Opcode.BCC: "cond",
              Opcode.MFSR: "imm", Opcode.MTSR: "imm"}
_SHI = Opcode.SHI                   # cheaper to test than the attribute


def form_key(ins) -> tuple:
    """The :data:`FORMS` key of ``ins`` (absent from the table for
    encodings the reference rejects or treats specially)."""
    op = ins.op
    field = _SELECTORS.get(op)
    if field is None or (op is _SHI and not ins.imm & 15):
        return op, None                 # incl. the zero-amount SHI form
    return op, getattr(ins, field)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

#: rendering targets: per-core closure, fused superblock, NumPy lanes
CLOSURE, BLOCK, VEC = "closure", "block", "vec"

_FIELDS = ("rd", "rs", "rt", "imm", "pc")
_FLAGS = ("fz", "fn", "fc", "fv")
_SREGS = tuple(sr.name.lower() for sr in SpecialReg)


class Rendered(NamedTuple):
    """One form in one target's shape.

    ``lines``, ``pc``, ``touched`` and ``written`` are ``str.format``
    templates over ``values(rd, rs, rt, imm, pc)``: the form's folded
    constants for one instruction (closures take them as the factory's
    ``k0, k1, ...`` parameters instead, so their templates have none).

    :param lines: the statements, in program order.
    :param pc: next-PC expression, or None to fall through.
    :param touched: state locals the statements read or write (block
        and vec targets): ``r<i>`` registers, ``f<z|n|c|v>`` flags,
        ``s_<name>`` special registers.
    :param written: the subset of ``touched`` that is written.
    :param slots: number of folded constants ``values`` returns.
    """

    lines: tuple
    pc: str | None
    touched: tuple
    written: tuple
    values: object
    slots: int


class _Translator:
    """Rewrites template statements for one target, folding constants."""

    def __init__(self, target: str):
        self.target = target
        self.consts: list[str] = []
        self.touched: dict = {}
        self.written: dict = {}
        self.pc: str | None = None

    def slot(self, node) -> ast.expr:
        """Fold the static expression ``node`` into a constant slot."""
        k = len(self.consts)
        self.consts.append(ast.unparse(node))
        return ast.Name(f"k{k}" if self.target == CLOSURE else f"{{{k}}}")

    def state(self, local: str, attr: str, write: bool) -> ast.expr:
        """A register/flag/special-register access (rendered names are
        emitted verbatim, so a Name can carry ``core.flag_z``)."""
        if self.target == CLOSURE:
            return ast.Name(attr)
        self.touched[local] = None
        if write:
            self.written[local] = None
        return ast.Name(local)

    def access(self, node, write: bool = False) -> ast.expr:
        if isinstance(node, ast.Subscript):                 # R[index]
            k = self.slot(node.slice).id
            return self.state(f"r{k}", f"regs[{k}]", write)
        name = node.id
        if name in _FLAGS:
            return self.state(name, f"core.flag_{name[1]}", write)
        if name in _SREGS:
            return self.state(f"s_{name}", f"core.{name}", write)
        if name == "pc":                    # dynamic only in closures
            return ast.Name("core.pc")
        if name == "mode":                  # closures only
            return ast.Name("core.mode")
        return node                             # temporary or mode name

    def expr(self, node) -> ast.expr:
        node, static = self._walk(node)
        if static and not isinstance(node, ast.Constant):
            return self.slot(node)
        return node

    def _walk(self, node) -> tuple:
        """``(node', static)``: static subtrees are left for the caller
        to fold whole, so every folded constant is maximal."""
        if isinstance(node, ast.Constant):
            return node, True
        if isinstance(node, ast.Name) and node.id in _FIELDS:
            if node.id != "pc" or self.target != CLOSURE:
                return node, True
        if isinstance(node, (ast.Name, ast.Subscript)):
            return self.access(node), False
        if isinstance(node, ast.Call):                      # sel(c, a, b)
            args = [self.expr(arg) for arg in node.args]
            if self.target == VEC:
                return ast.Call(ast.Attribute(ast.Name("np"), "where"),
                                args, []), False
            return ast.IfExp(*args), False
        children = []
        for field, value in ast.iter_fields(node):
            if isinstance(value, ast.expr):
                children.append((field, None, *self._walk(value)))
            elif isinstance(value, list):
                children += [(field, i, *self._walk(item))
                             for i, item in enumerate(value)
                             if isinstance(item, ast.expr)]
        if all(static for *_, static in children):
            return node, True
        for field, i, child, static in children:
            if static and not isinstance(child, ast.Constant):
                child = self.slot(child)
            if i is None:
                setattr(node, field, child)
            else:
                getattr(node, field)[i] = child
        return node, False

    def statement(self, assign: ast.Assign) -> str | None:
        target = assign.targets[0]
        value = self.expr(assign.value)
        if isinstance(target, ast.Name) and target.id == "PC":
            self.pc = ast.unparse(value)
            return None
        if (isinstance(target, ast.Name) and target.id in _FLAGS
                and self.target != VEC and isinstance(value, ast.Compare)):
            # scalar flags stay 0/1 ints, like the reference's
            value = ast.IfExp(value, ast.Constant(1), ast.Constant(0))
        return f"{ast.unparse(self.access(target, True))} = " \
               f"{ast.unparse(value)}"


_renderings: dict = {}
#: constant-slot sources -> the function computing them (the block and
#: vec renderings of a form fold the same constants)
_folders: dict = {}


def rendered(ins, target: str) -> Rendered | None:
    """``ins``'s form in ``target``'s shape (memoized per form), or None
    for forms the engines never run inline in that shape (memory, sync,
    encodings outside the table, and the mode-changing stop forms
    outside the closure target)."""
    key = form_key(ins)
    try:
        return _renderings[key, target]
    except KeyError:
        pass
    form = FORMS.get(key)
    result = None
    if form is not None and (form.kind <= BURSTABLE or (
            form.kind == KIND_STOP and target == CLOSURE)):
        t = _Translator(target)
        lines = tuple(
            line for line in map(t.statement,
                                 ast.parse("\n".join(form.body)).body)
            if line is not None)
        source = ("lambda rd, rs, rt, imm, pc: ("
                  + "".join(f"{const}, " for const in t.consts) + ")")
        values = _folders.get(source)
        if values is None:
            values = _folders[source] = eval(source)       # noqa: S307
        result = Rendered(lines, t.pc, tuple(t.touched),
                          tuple(t.written), values, len(t.consts))
    _renderings[key, target] = result
    return result


def _literal(value: int) -> str:
    return str(value) if value >= 0 else f"({value})"


class Writer:
    """Accumulates one block's statements and the state locals they touch.

    The block and vec renderers load every ``touched`` local at entry
    and store every ``written`` one at exit, each in its own shape.
    """

    def __init__(self, target: str):
        self.target = target
        self.body: list[str] = []
        self.touched: dict = {}
        self.written: dict = {}

    def emit(self, line: str) -> None:
        self.body.append("    " + line)

    def inline(self, ins, pc: int) -> str | None:
        """Emit the effect of ``ins`` at address ``pc``; returns its
        next-PC expression (None when it falls through)."""
        r = rendered(ins, self.target)
        values = [_literal(v)
                  for v in r.values(ins.rd, ins.rs, ins.rt, ins.imm, pc)]
        for name in r.touched:
            self.touched[name.format(*values)] = None
        for name in r.written:
            self.written[name.format(*values)] = None
        for line in r.lines:
            self.emit(line.format(*values))
        return None if r.pc is None else r.pc.format(*values)
