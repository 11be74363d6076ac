"""The semantics table: completeness, and every rendering of every form.

:data:`repro.cpu.semantics.FORMS` is the one place the fast engines
learn what an instruction does.  This file checks that the table covers
the whole ISA, and that each of its three renderings — the predecode
closure, the fused superblock and the NumPy vec block — matches the
independent reference executor, form by form, over a multi-run,
multi-core state: registers, the four flags, PC and the special
registers.  The mode-changing forms (``SLEEP``, ``HALT``) render as
closures only, checked on mode and PC.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cpu import blocks, compile_instruction, execute_plain, vec
from repro.cpu.predecode import predecode
from repro.cpu.semantics import (
    BLOCK,
    BURSTABLE,
    CLOSURE,
    FORMS,
    VEC,
    KIND_JUMP,
    KIND_MEM,
    KIND_SEQ,
    KIND_STOP,
    KIND_SYNC,
    form_key,
    rendered,
)
from repro.isa import Instruction, Opcode
from repro.isa.spec import Cond, ShiftOp, SpecialReg, SysOp

from ..oracles import (
    clone,
    core_states,
    form_id,
    form_keys,
    instructions,
    snapshot,
)

RUNS = 2
CORES = 3
#: vec state plane -> CoreState attribute, for every per-lane plane
PLANES = (("fz", "flag_z"), ("fn", "flag_n"), ("fc", "flag_c"),
          ("fv", "flag_v"), ("rsync", "rsync"), ("ivec", "ivec"),
          ("epc", "epc"), ("status", "status"))


def test_every_opcode_and_sub_op_has_a_form():
    """A new opcode (or sub-op) fails here until it has a table entry."""
    opcodes = {op for op, _ in FORMS}
    assert opcodes == set(Opcode)
    for sub in SysOp:
        assert (Opcode.SYS, sub) in FORMS, sub
    for sub in ShiftOp:
        assert (Opcode.SHI, sub) in FORMS, sub
    for cond in Cond:
        assert (Opcode.BCC, cond) in FORMS, cond
    for sr in SpecialReg:
        assert (Opcode.MFSR, sr) in FORMS and (Opcode.MTSR, sr) in FORMS
    for op, kind in ((Opcode.LD, KIND_MEM), (Opcode.ST, KIND_MEM),
                     (Opcode.SINC, KIND_SYNC), (Opcode.SDEC, KIND_SYNC)):
        assert FORMS[op, None] == (kind, ()), op
    for key, form in FORMS.items():
        # only NOP and the ignored identity-register writes do nothing
        assert form.body or form.kind > KIND_STOP or key in (
            (Opcode.SYS, SysOp.NOP), (Opcode.MTSR, SpecialReg.COREID),
            (Opcode.MTSR, SpecialReg.NCORES)), key


def test_form_keys_resolve():
    assert form_key(Instruction(Opcode.SHI, sub=1, imm=0)) == (Opcode.SHI,
                                                               None)
    assert form_key(Instruction(Opcode.SHI, sub=1, imm=3)) == (Opcode.SHI,
                                                               ShiftOp.SRLI)
    # outside the table: the closure defers to the reference executor
    assert form_key(Instruction(Opcode.MFSR, imm=99)) not in FORMS
    assert compile_instruction(Instruction(Opcode.MFSR, imm=99))[0] \
        == KIND_STOP


def _vec_state(states):
    """A :class:`~repro.cpu.vec.VecState` holding ``states[run][core]``."""
    S = vec.VecState()
    S.C = S.ncores = CORES
    S.coreid_row = np.arange(CORES, dtype=np.int64)
    S.regs = np.array([[core.regs for core in run] for run in states],
                      dtype=np.int64)
    for plane, attr in PLANES:
        setattr(S, plane, np.array([[getattr(core, attr) for core in run]
                                    for run in states], dtype=np.int64))
    return S


def _lane(S, pcs, run: int, core: int, like) -> tuple:
    lane = clone(like)
    lane.regs = [int(v) for v in S.regs[run, core]]
    lane.pc = int(pcs[run, core])
    for plane, attr in PLANES:
        setattr(lane, attr, int(getattr(S, plane)[run, core]))
    return snapshot(lane)


@pytest.mark.parametrize("key", form_keys(range(BURSTABLE + 1)), ids=form_id)
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_form_renderings_match_reference(key, data):
    ins = data.draw(instructions(keys=[key]))
    pc = data.draw(st.integers(1, 300))
    states = [[data.draw(core_states(cid, CORES)) for cid in range(CORES)]
              for _ in range(RUNS)]
    for run in states:
        for core in run:
            core.pc = pc
    expected = []
    for run in states:
        row = []
        for core in run:
            ref = clone(core)
            execute_plain(ref, ins)
            row.append(snapshot(ref))
        expected.append(row)
    # the instruction sits at address pc of an otherwise-NOP image
    decoded = predecode([Instruction(Opcode.SYS)] * pc + [ins])

    # predecode closure, per core
    kind, run_closure, _ = compile_instruction(ins)
    assert kind == FORMS[key].kind
    for run, row in zip(states, expected):
        for core, want in zip(run, row):
            lane = clone(core)
            run_closure(lane)
            assert snapshot(lane) == want, ("closure", ins)

    # fused superblock: a NOP, then the instruction
    block = blocks.compile_block(decoded, pc - 1)
    assert block is not None and block.length == 2
    for run, row in zip(states, expected):
        for core, want in zip(run, row):
            lane = clone(core)
            lane.pc = pc - 1
            block.run(lane)
            assert snapshot(lane) == want, ("block", ins, block.source)

    # vec block over every core of every run at once
    vblock = vec.compile_block(decoded, pc)
    assert vblock is not None and vblock.length == 1
    S = _vec_state(states)
    result = vblock.run(S, np.arange(RUNS, dtype=np.int64))
    if vblock.end_kind == KIND_SEQ:
        result = pc + 1
    elif vblock.end_kind == KIND_JUMP:
        result = vblock.target
    pcs = np.broadcast_to(np.asarray(result), (RUNS, CORES))
    for r, (run, row) in enumerate(zip(states, expected)):
        for c, (core, want) in enumerate(zip(run, row)):
            assert _lane(S, pcs, r, c, core) == want, \
                ("vec", ins, vblock.source)


@pytest.mark.parametrize("key", form_keys([KIND_STOP]), ids=form_id)
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_mode_changing_closures_match_reference(key, data):
    """``SLEEP``/``HALT`` closures are rendered from the table, not the
    reference fallback, and match it on mode, PC and the rest of the
    core; blocks end before them and the batch engine peels on them, so
    they have no block or vec rendering."""
    ins = data.draw(instructions(keys=[key]))
    core = data.draw(core_states())
    ref = clone(core)
    execute_plain(ref, ins)
    kind, run_closure, _ = compile_instruction(ins)
    assert kind == KIND_STOP
    assert "execute_plain" not in run_closure.__code__.co_names
    lane = clone(core)
    run_closure(lane)
    assert snapshot(lane) == snapshot(ref)
    assert rendered(ins, CLOSURE) is not None
    assert rendered(ins, BLOCK) is None and rendered(ins, VEC) is None
