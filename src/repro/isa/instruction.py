"""Decoded-instruction representation shared by the whole toolchain.

The simulator executes :class:`Instruction` objects directly (the binary
image is decoded once at load time), so this class is deliberately a small,
immutable record with cheap attribute access.
"""

from __future__ import annotations

from dataclasses import dataclass

from .spec import (
    Cond,
    Opcode,
    ShiftOp,
    SysOp,
    R3_OPCODES,
    I8_OPCODES,
    J_OPCODES,
    SYNC_OPCODES,
)


@dataclass(frozen=True, slots=True)
class Instruction:
    """One decoded ``ulp16`` instruction.

    Fields that an opcode does not use are left at their defaults; the
    encoder zeroes them in the binary form.

    :param op: primary opcode.
    :param rd: destination register (or SYS sub-op / branch condition slot).
    :param rs: first source register.
    :param rt: second source register.
    :param imm: immediate operand, already sign-interpreted where relevant.
    :param sub: sub-operation for ``SYS``/``SHI`` (``SysOp``/``ShiftOp``).
    :param cond: branch condition for ``BCC``.
    """

    op: Opcode
    rd: int = 0
    rs: int = 0
    rt: int = 0
    imm: int = 0
    sub: int = 0
    cond: Cond = Cond.EQ

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return format_instruction(self)


def format_instruction(ins: Instruction) -> str:
    """Render an :class:`Instruction` in assembler syntax."""
    op = ins.op
    if op is Opcode.SYS:
        return SysOp(ins.sub).name
    if op in R3_OPCODES:
        return f"{op.name} R{ins.rd}, R{ins.rs}, R{ins.rt}"
    if op is Opcode.MOV:
        return f"MOV R{ins.rd}, R{ins.rs}"
    if op is Opcode.CMP:
        return f"CMP R{ins.rd}, R{ins.rs}"
    if op is Opcode.MFSR:
        return f"MFSR R{ins.rd}, #{ins.imm}"
    if op is Opcode.MTSR:
        return f"MTSR #{ins.imm}, R{ins.rs}"
    if op is Opcode.ADDI:
        return f"ADDI R{ins.rd}, R{ins.rs}, #{ins.imm}"
    if op in I8_OPCODES:
        return f"{op.name} R{ins.rd}, #{ins.imm}"
    if op is Opcode.CMPI:
        return f"CMPI R{ins.rd}, #{ins.imm}"
    if op is Opcode.SHI:
        return f"{ShiftOp(ins.sub).name} R{ins.rd}, #{ins.imm}"
    if op is Opcode.LD:
        return f"LD R{ins.rd}, [R{ins.rs} + #{ins.imm}]"
    if op is Opcode.ST:
        return f"ST R{ins.rd}, [R{ins.rs} + #{ins.imm}]"
    if op is Opcode.BCC:
        return f"B{ins.cond.name} #{ins.imm}"
    if op in J_OPCODES:
        return f"{op.name} #{ins.imm}"
    if op is Opcode.JR:
        return f"JR R{ins.rs}"
    if op is Opcode.CALLR:
        return f"CALLR R{ins.rs}"
    if op in SYNC_OPCODES:
        return f"{op.name} #{ins.imm}"
    raise ValueError(f"unformattable instruction {ins!r}")


# Convenience constructors keep call sites (builder DSL, tests) terse.

def sys(sub: SysOp) -> Instruction:
    return Instruction(Opcode.SYS, sub=int(sub))


NOP = sys(SysOp.NOP)
HALT = sys(SysOp.HALT)
SLEEP = sys(SysOp.SLEEP)
RETI = sys(SysOp.RETI)
EI = sys(SysOp.EI)
DI = sys(SysOp.DI)
