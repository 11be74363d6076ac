"""Superblock fusion: codegen exactness, discovery rules, cache keying.

The fused closures (:mod:`repro.cpu.blocks`) must be *bit-identical* to
running the reference executor instruction by instruction — registers,
all four flags, and the PC — for every fusable opcode and every
terminator.  This file proves it with randomized straight-line programs
(hypothesis) and exhaustive terminator checks, then pins down the block
discovery rules (where blocks must stop) and the digest-keyed table
cache (sharing between identical images, invalidation on any change).
"""

from collections import OrderedDict

import pytest
from hypothesis import given, strategies as st

from repro.cpu import CoreState, execute_plain
from repro.cpu import blocks as blocks_mod
from repro.cpu.blocks import (
    MAX_BLOCK,
    BlockTable,
    compile_block,
    table_for,
)
from repro.cpu.predecode import KIND_DIVERGE, KIND_JUMP, KIND_SEQ, predecode
from repro.isa import Instruction, Opcode
from repro.isa.assembler import assemble
from repro.isa.spec import Cond, SpecialReg, SysOp

from .. import oracles

MASK = 0xFFFF


def fresh_core(regs, flags=(0, 0, 0, 0), pc=0):
    core = CoreState()
    core.regs = list(regs)
    core.flag_z, core.flag_n, core.flag_c, core.flag_v = flags
    core.pc = pc
    return core


def core_state(core):
    return (tuple(core.regs), core.pc, core.flag_z, core.flag_n,
            core.flag_c, core.flag_v, core.epc, core.ivec, core.status,
            core.rsync)


def run_both(instructions, regs, flags=(0, 0, 0, 0)):
    """(fused state, reference state) after the whole sequence."""
    decoded = predecode(list(instructions))
    block = compile_block(decoded, 0)
    assert block is not None, "sequence should be fusable"
    assert block.length == len(instructions)

    fused = fresh_core(regs, flags)
    block.run(fused)

    ref = fresh_core(regs, flags)
    for ins in instructions:
        execute_plain(ref, ins)
    return core_state(fused), core_state(ref)


# ---------------------------------------------------------------------------
# Randomized codegen exactness (every fusable KIND_SEQ form)
# ---------------------------------------------------------------------------

@given(st.lists(oracles.instructions(kinds=(KIND_SEQ,)),
                min_size=2, max_size=30),
       st.lists(st.integers(0, MASK), min_size=8, max_size=8),
       st.tuples(*[st.integers(0, 1)] * 4))
def test_fused_matches_reference_executor(program, regs, flags):
    fused, ref = run_both(program, regs, flags)
    assert fused == ref


@given(st.lists(st.integers(0, MASK), min_size=8, max_size=8),
       st.tuples(*[st.integers(0, 1)] * 4))
def test_special_register_traffic(regs, flags):
    instructions = [
        Instruction(Opcode.MFSR, rd=1, imm=SpecialReg.COREID),
        Instruction(Opcode.MTSR, rs=2, imm=SpecialReg.IVEC),
        Instruction(Opcode.MFSR, rd=3, imm=SpecialReg.IVEC),
        Instruction(Opcode.MTSR, rs=4, imm=SpecialReg.COREID),  # ignored
        Instruction(Opcode.MFSR, rd=5, imm=SpecialReg.COREID),
    ]
    fused, ref = run_both(instructions, regs, flags)
    assert fused == ref


# ---------------------------------------------------------------------------
# Terminators (exhaustive over conditions, both flag outcomes)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("cond", list(Cond))
@pytest.mark.parametrize("a,b", [(5, 5), (5, 9), (9, 5), (0, MASK)])
def test_branch_terminators(cond, a, b):
    instructions = [
        Instruction(Opcode.LDI, rd=0, imm=a),
        Instruction(Opcode.CMPI, rd=0, imm=b),
        Instruction(Opcode.BCC, cond=cond, imm=7),
    ]
    fused, ref = run_both(instructions, [0] * 8)
    assert fused == ref


@pytest.mark.parametrize("terminator", [
    Instruction(Opcode.JMP, imm=3),
    Instruction(Opcode.CALL, imm=9),
    Instruction(Opcode.JR, rs=4),
    Instruction(Opcode.CALLR, rs=4),
    Instruction(Opcode.CALLR, rs=7),     # LR write precedes target read
    Instruction(Opcode.SYS, sub=SysOp.RETI),
])
def test_jump_terminators(terminator):
    instructions = [
        Instruction(Opcode.LDI, rd=4, imm=42),
        Instruction(Opcode.ADDI, rd=7, rs=4, imm=1),
        terminator,
    ]
    fused, ref = run_both(instructions, list(range(8)))
    assert fused == ref


# ---------------------------------------------------------------------------
# Block discovery rules
# ---------------------------------------------------------------------------

def decoded_of(source):
    return predecode(assemble(source).instructions)


def test_block_stops_at_memory_boundary():
    decoded = decoded_of(
        " ADD R0, R1, R2\n ADD R3, R0, R1\n LD R4, [R0]\n ADD R5, R4, R0\n")
    block = compile_block(decoded, 0)
    assert block is not None
    assert block.length == 2            # never crosses KIND_MEM
    assert block.end_kind == KIND_SEQ
    assert compile_block(decoded, 2) is None   # LD itself starts nothing


def test_block_stops_at_sync_and_stop():
    decoded = decoded_of(" ADD R0, R1, R2\n ADD R3, R0, R1\n SINC #0\n")
    assert compile_block(decoded, 0).length == 2
    decoded = decoded_of(" ADD R0, R1, R2\n ADD R3, R0, R1\n HALT\n")
    assert compile_block(decoded, 0).length == 2
    decoded = decoded_of(" ADD R0, R1, R2\n ADD R3, R0, R1\n SLEEP\n")
    assert compile_block(decoded, 0).length == 2


def test_short_runs_are_not_fused():
    # a lone sequential op before a memory boundary is below MIN_BLOCK
    decoded = decoded_of(" ADD R0, R1, R2\n LD R4, [R0]\n")
    assert compile_block(decoded, 0) is None
    # a terminator alone never starts a block
    decoded = decoded_of(" JMP #0\n")
    assert compile_block(decoded, 0) is None


def test_terminator_ends_block():
    decoded = decoded_of(
        " ADD R0, R1, R2\n JMP #0\n ADD R3, R0, R1\n")
    block = compile_block(decoded, 0)
    assert block.length == 2
    assert block.end_kind == KIND_JUMP
    decoded = decoded_of(" ADD R0, R1, R2\n JR R5\n")
    assert compile_block(decoded, 0).end_kind == KIND_DIVERGE


def test_invalid_special_register_breaks_block():
    instructions = [
        Instruction(Opcode.ADD, rd=0, rs=1, rt=2),
        Instruction(Opcode.ADD, rd=3, rs=0, rt=1),
        Instruction(Opcode.MFSR, rd=4, imm=13),    # no such SpecialReg
    ]
    block = compile_block(predecode(instructions), 0)
    assert block is not None and block.length == 2


def test_max_block_cap():
    instructions = [Instruction(Opcode.ADDI, rd=0, rs=0, imm=1)] * 100
    block = compile_block(predecode(instructions), 0)
    assert block.length == MAX_BLOCK


def test_mid_block_entry_compiles_suffix():
    """A branch into the middle of a run fuses its own (suffix) block."""
    instructions = [Instruction(Opcode.ADDI, rd=0, rs=0, imm=1)] * 6
    decoded = predecode(instructions)
    whole = compile_block(decoded, 0)
    suffix = compile_block(decoded, 3)
    assert whole.length == 6 and suffix.length == 3

    fused = fresh_core([0] * 8, pc=3)
    suffix.run(fused)
    ref = fresh_core([0] * 8, pc=3)
    for ins in instructions[3:]:
        execute_plain(ref, ins)
    assert core_state(fused) == core_state(ref)


# ---------------------------------------------------------------------------
# The digest-keyed table cache
# ---------------------------------------------------------------------------

SOURCE_A = " ADD R0, R1, R2\n ADD R3, R0, R1\n HALT\n"
SOURCE_B = " ADD R0, R1, R2\n SUB R3, R0, R1\n HALT\n"


def test_identical_images_share_one_table():
    first, second = assemble(SOURCE_A), assemble(SOURCE_A)
    assert first is not second
    assert table_for(first) is table_for(second)


def test_changed_image_gets_fresh_table():
    table_a = table_for(assemble(SOURCE_A))
    table_b = table_for(assemble(SOURCE_B))
    assert table_a is not table_b
    assert table_a.digest != table_b.digest
    # and the old image still maps to its old table (no aliasing)
    assert table_for(assemble(SOURCE_A)) is table_a


def test_data_and_symbol_changes_invalidate():
    base = assemble(SOURCE_A)
    with_data = assemble(SOURCE_A + ".data 100\n.word 1, 2, 3\n")
    assert table_for(base) is not table_for(with_data)
    assert base.digest() != with_data.digest()


def test_unencodable_program_falls_back_to_private_table():
    class Stub:
        def digest(self):
            raise ValueError("synthetic image")

        def predecoded(self):
            return predecode([Instruction(Opcode.ADD, rd=0, rs=1, rt=2)])

    table = table_for(Stub())
    assert isinstance(table, BlockTable)
    assert table.digest is None
    assert table is not table_for(Stub())     # never shared


def test_table_cache_is_lru_bounded(monkeypatch):
    monkeypatch.setattr(blocks_mod, "_tables", OrderedDict())
    monkeypatch.setattr(blocks_mod, "_TABLE_LIMIT", 2)
    programs = [assemble(f" LDI R0, #{n}\n ADD R1, R0, R0\n HALT\n")
                for n in range(3)]
    tables = [table_for(p) for p in programs]
    assert len(blocks_mod._tables) == 2
    # the oldest entry was evicted; re-requesting it builds a new table
    assert table_for(assemble(" LDI R0, #0\n ADD R1, R0, R0\n HALT\n")) \
        is not tables[0]
    # the newest is still shared
    assert table_for(programs[2]) is tables[2]


def test_lazy_compilation_memoizes_none():
    table = BlockTable(decoded_of(" JMP #0\n"))
    assert table.at(0) is None
    assert table.blocks == {0: None}          # probe memoized
    assert table.compiled() == 0
