"""Shared differential oracles for the engine tests.

- :func:`machine_state` / :func:`assert_equivalent` — everything
  observable about a machine, the ground truth every engine pair (fast
  vs reference ``step()``, batched vs serial) is compared on: the
  activity trace, data memory, every core's architectural state, the
  rotating priorities of both crossbars, and the barrier state — each
  checkpoint's statistics and which cores sleep at a barrier.
- :func:`instructions` — one hypothesis strategy spanning the ISA's
  semantics table (:data:`repro.cpu.semantics.FORMS`), with random
  operand fields; :func:`core_states`, :func:`clone` and
  :func:`snapshot` are the per-core state helpers that go with it.
- :func:`if_programs` — minic kernels whose cores take different arms
  of data-dependent ``if`` statements, the shared program strategy for
  divergence differentials.
"""

from dataclasses import astuple

from hypothesis import strategies as st

from repro.cpu import CoreState
from repro.cpu.semantics import FORMS
from repro.isa import Instruction, Opcode

MASK = 0xFFFF


def machine_state(machine) -> dict:
    """Everything observable about a machine."""
    return {
        "trace": machine.trace.as_dict(),
        "dm": list(machine.dm.words),
        "cores": [
            (core.pc, core.mode, tuple(core.regs),
             core.flag_z, core.flag_n, core.flag_c, core.flag_v,
             core.epc, core.ivec, core.status, core.rsync)
            for core in machine.cores
        ],
        "ixbar_priority": list(machine.ixbar._priority),
        "dxbar_priority": list(machine.dxbar._priority),
        "checkpoint_stats": None if machine.synchronizer is None else {
            address: astuple(stats)
            for address, stats in machine.synchronizer.stats.items()},
        "barrier_sleeper": list(machine._barrier_sleeper),
    }


def assert_equivalent(machine, other) -> None:
    """Bit-exact equality of two machines, one component at a time (so
    a failure names what diverged)."""
    state = machine_state(machine)
    other_state = machine_state(other)
    for key in state:
        assert state[key] == other_state[key], key


# ---------------------------------------------------------------------------
# Instructions and core states
# ---------------------------------------------------------------------------

#: immediate ranges per opcode (the encodable ones, a little wider for
#: the sign-extended fields); absent opcodes carry no immediate
_IMM = {
    Opcode.ADDI: (-16, 15), Opcode.CMPI: (-128, 255),
    Opcode.LDI: (-128, 255), Opcode.LUI: (0, 255), Opcode.ORI: (0, 255),
    Opcode.BCC: (-30, 30), Opcode.JMP: (0, 300), Opcode.CALL: (0, 300),
    Opcode.LD: (-16, 15), Opcode.ST: (-16, 15),
    Opcode.SINC: (0, 31), Opcode.SDEC: (0, 31),
}


def form_keys(kinds=None) -> list:
    """Table form keys (of the given dispatch kinds), in a stable order."""
    return sorted((key for key, form in FORMS.items()
                   if kinds is None or form.kind in kinds), key=repr)


def form_id(key) -> str:
    """A readable test id for a form key, e.g. ``BCC-LE``."""
    op, selector = key
    if selector is None:
        return "SHI-zero" if op is Opcode.SHI else op.name
    return f"{op.name}-{selector.name}"


@st.composite
def instructions(draw, keys=None, kinds=None):
    """An instruction of one of the table forms ``keys`` (default: every
    form of the dispatch ``kinds``, default all), operands random."""
    op, selector = draw(st.sampled_from(keys or form_keys(kinds)))
    reg = st.integers(0, 7)
    fields = {"rd": draw(reg), "rs": draw(reg), "rt": draw(reg)}
    if op is Opcode.SYS:
        fields["sub"] = int(selector)
    elif op is Opcode.SHI:
        # the ``None`` form is the zero-amount shift, for any kind
        fields["sub"] = int(draw(st.sampled_from((0, 1, 2)))
                            if selector is None else selector)
        fields["imm"] = 0 if selector is None else draw(st.integers(1, 15))
    elif op is Opcode.BCC:
        fields["cond"] = selector
    elif op in (Opcode.MFSR, Opcode.MTSR):
        fields["imm"] = int(selector)
    if op in _IMM:
        fields["imm"] = draw(st.integers(*_IMM[op]))
    return Instruction(op, **fields)


@st.composite
def core_states(draw, coreid=None, ncores=8):
    """A core with random registers, flags, PC and special registers."""
    core = CoreState(draw(st.integers(0, ncores - 1))
                     if coreid is None else coreid, ncores)
    core.regs = draw(st.lists(st.integers(0, MASK),
                              min_size=8, max_size=8))
    core.pc = draw(st.integers(0, 500))
    core.flag_z = draw(st.integers(0, 1))
    core.flag_n = draw(st.integers(0, 1))
    core.flag_c = draw(st.integers(0, 1))
    core.flag_v = draw(st.integers(0, 1))
    core.epc = draw(st.integers(0, MASK))
    core.ivec = draw(st.integers(0, MASK))
    core.status = draw(st.integers(0, MASK))
    core.rsync = draw(st.integers(0, MASK))
    return core


def clone(core: CoreState) -> CoreState:
    other = CoreState(core.coreid, core.ncores)
    other.regs = list(core.regs)
    other.pc = core.pc
    other.flag_z, other.flag_n = core.flag_z, core.flag_n
    other.flag_c, other.flag_v = core.flag_c, core.flag_v
    other.epc, other.ivec = core.epc, core.ivec
    other.status, other.rsync = core.status, core.rsync
    other.mode = core.mode
    return other


def snapshot(core: CoreState) -> tuple:
    return (tuple(core.regs), core.pc, core.mode,
            core.flag_z, core.flag_n, core.flag_c, core.flag_v,
            core.epc, core.ivec, core.status, core.rsync)


# ---------------------------------------------------------------------------
# Programs
# ---------------------------------------------------------------------------

_COND_TEMPLATES = [
    "({v} & {k})", "({v} > {w})", "({v} < {k})", "({v} != {w})",
    "(({v} ^ {w}) & {k})",
]
_ARM_TEMPLATES = [
    "{t} = {t} + {w};", "{t} = {t} - {k};", "{t} = {t} ^ {w};",
    "{t} = {w} * {k};", "{t} = {t} + {k}; {u} = {u} ^ {t};",
]
_VARS = ["a", "b", "c"]


@st.composite
def if_programs(draw):
    """A minic kernel made of guarded single-arm assignments.

    Core ``id`` reads ``in[id]`` and writes ``out[id]``; every ``if``
    tests values derived from its own input, so the cores of one run
    (and the runs of one batch) take different arms.
    """
    lines = [
        "int in[8];",
        "int out[8];",
        "void main() {",
        "    int id = __coreid();",
        "    int x = in[id];",
        "    int a = x * 3 + id;",
        "    int b = x - 5;",
        "    int c = (x >> 2) ^ id;",
    ]
    for _ in range(draw(st.integers(2, 5))):
        cond = draw(st.sampled_from(_COND_TEMPLATES)).format(
            v=draw(st.sampled_from(_VARS + ["x"])),
            w=draw(st.sampled_from(_VARS)),
            k=draw(st.integers(1, 7)))
        target = draw(st.sampled_from(_VARS))
        other = draw(st.sampled_from(_VARS))
        arm = draw(st.sampled_from(_ARM_TEMPLATES)).format(
            t=target, u=other, w=draw(st.sampled_from(_VARS + ["x"])),
            k=draw(st.integers(1, 7)))
        lines.append(f"    if {cond} {{ {arm} }}")
    lines.append("    out[id] = (a ^ b) + c;")
    lines.append("}")
    return "\n".join(lines)
