"""Differential check of predecoded closures against ``execute_plain``.

Every plain instruction's compiled closure must apply exactly the same
register, flag, PC, mode and special-register effects as the reference
executor, from any architectural state (instructions drawn from every
form of the semantics table).  Classification (the ``kind`` tags the
fast engine dispatches on) and error behaviour are pinned too.
"""

from hypothesis import given
import pytest

from repro.cpu import CoreState, compile_instruction, execute_plain
from repro.cpu.predecode import (
    BURSTABLE,
    KIND_DIVERGE,
    KIND_JUMP,
    KIND_MEM,
    KIND_SEQ,
    KIND_STOP,
    KIND_SYNC,
    predecode,
)
from repro.isa import Instruction, Opcode
from repro.isa.spec import SysOp

from ..oracles import clone, core_states, instructions, snapshot

#: every form execute_plain accepts (all but LD/ST and SINC/SDEC)
PLAIN_KINDS = (KIND_SEQ, KIND_JUMP, KIND_DIVERGE, KIND_STOP)


@given(instructions(kinds=PLAIN_KINDS), core_states())
def test_closure_matches_execute_plain(ins, core):
    reference = clone(core)
    execute_plain(reference, ins)

    kind, run, original = compile_instruction(ins)
    assert original is ins
    assert kind <= KIND_STOP
    run(core)
    assert snapshot(core) == snapshot(reference), str(ins)


def test_kind_classification():
    assert compile_instruction(Instruction(Opcode.ADD))[0] == KIND_SEQ
    assert compile_instruction(Instruction(Opcode.SYS))[0] == KIND_SEQ  # NOP
    assert compile_instruction(Instruction(Opcode.JMP, imm=3))[0] == KIND_JUMP
    assert compile_instruction(Instruction(Opcode.CALL, imm=3))[0] == KIND_JUMP
    assert compile_instruction(Instruction(Opcode.BCC))[0] == KIND_DIVERGE
    assert compile_instruction(Instruction(Opcode.JR))[0] == KIND_DIVERGE
    assert compile_instruction(
        Instruction(Opcode.SYS, sub=int(SysOp.RETI)))[0] == KIND_DIVERGE
    for sub in (SysOp.HALT, SysOp.SLEEP):
        assert compile_instruction(
            Instruction(Opcode.SYS, sub=int(sub)))[0] == KIND_STOP
    assert compile_instruction(Instruction(Opcode.SINC))[0] == KIND_SYNC
    assert compile_instruction(Instruction(Opcode.SDEC))[0] == KIND_SYNC
    # only SEQ/JUMP/DIVERGE may execute inside a lockstep burst
    assert BURSTABLE == KIND_DIVERGE


def test_memory_payload_carries_operands():
    ld = Instruction(Opcode.LD, rd=3, rs=1, imm=-2)
    st_ = Instruction(Opcode.ST, rd=4, rs=2, imm=5)
    assert compile_instruction(ld) == (KIND_MEM, (False, 1, -2, 3), ld)
    assert compile_instruction(st_) == (KIND_MEM, (True, 2, 5, 4), st_)


def test_predecode_shares_records():
    nop = Instruction(Opcode.SYS, sub=int(SysOp.NOP))
    add = Instruction(Opcode.ADD, rd=1, rs=2, rt=3)
    records = predecode([nop, add, nop])
    assert records[0] is records[2]
    assert records[1][2] is add


@pytest.mark.parametrize("ins", [
    Instruction(Opcode.SYS, sub=15),           # undefined SYS sub-op
    Instruction(Opcode.MFSR, rd=1, imm=99),    # invalid special register
    Instruction(Opcode.MTSR, rs=1, imm=99),
])
def test_errors_match_reference(ins):
    reference = CoreState(0, 8)
    with pytest.raises(Exception) as slow:
        execute_plain(reference, ins)
    _, run, _ = compile_instruction(ins)
    with pytest.raises(Exception) as fast:
        run(CoreState(0, 8))
    assert type(fast.value) is type(slow.value)
    assert str(fast.value) == str(slow.value)
