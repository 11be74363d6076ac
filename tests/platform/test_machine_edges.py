"""Edge cases of the cycle engine: locks vs loads, IRQ masking, limits."""

import pytest

from repro.platform import (
    Machine,
    PlatformConfig,
    SyncPolicy,
    WITH_SYNCHRONIZER,
)

ONE_CORE = PlatformConfig(num_cores=1)


class TestProgramLimits:
    def test_oversized_program_rejected(self):
        from repro.isa import Instruction, Opcode, Program

        config = PlatformConfig(num_cores=1, im_banks=1, im_bank_words=8)
        program = Program(instructions=[Instruction(Opcode.SYS)] * 9)
        with pytest.raises(ValueError):
            Machine(program, config)

    def test_fetch_past_end_detected(self):
        from repro.cpu.executor import ExecutionError

        machine = Machine.from_assembly("NOP\nNOP", ONE_CORE)  # no HALT
        with pytest.raises(ExecutionError):
            machine.run(max_cycles=100)

    @pytest.mark.parametrize("fast_engine", [False, True],
                             ids=["step", "fast"])
    @pytest.mark.parametrize("op,verb", [("LD R2, [R1]", "read from"),
                                         ("ST R2, [R1]", "write to")],
                             ids=["load", "store"])
    @pytest.mark.parametrize("interleaved", [False, True],
                             ids=["blocked", "interleaved"])
    def test_out_of_range_data_access_names_the_fault(
            self, interleaved, op, verb, fast_engine):
        from repro.platform.memory import MemoryError_

        machine = Machine.from_assembly(
            f"LI R1, #32767\nADDI R1, R1, #5\n{op}\nHALT",
            PlatformConfig(num_cores=2, dm_interleaved=interleaved),
            fast_engine=fast_engine)
        with pytest.raises(MemoryError_, match=f"{verb} 32772 out of range"):
            machine.run(max_cycles=100)

    def test_run_cycles_stops_early(self):
        machine = Machine.from_assembly("NOP\nHALT", ONE_CORE)
        machine.run_cycles(1000)
        assert machine.all_halted
        assert machine.trace.cycles < 1000


class TestInterruptMasking:
    def test_pending_irq_waits_for_ei(self):
        source = """
        .entry main
        isr:
            LI R4, #1
            LI R5, #50
            ST R4, [R5]
            RETI
        main:
            LI R1, #isr
            MTSR IVEC, R1
            ; interrupts disabled: the IRQ at cycle 5 must stay pending
            LDI R2, #30
        spin:
            DEC R2
            BNE spin
            EI
            NOP
            NOP
            LI R5, #51
            LD R4, [R5 + #-1]
            ST R4, [R5]
            HALT
        """
        machine = Machine.from_assembly(source, ONE_CORE)
        machine.schedule_interrupt(5, 0)
        machine.run(max_cycles=5_000)
        assert machine.dm.read(50) == 1   # delivered after EI
        assert machine.dm.read(51) == 1

    def test_interrupt_not_delivered_to_halted_core(self):
        machine = Machine.from_assembly("EI\nHALT", ONE_CORE)
        machine.schedule_interrupt(100, 0)
        machine.run(max_cycles=5_000)
        assert machine.all_halted


class TestLockInteraction:
    def test_plain_load_to_locked_checkpoint_waits(self):
        # core 0 spams loads of the checkpoint word while cores sync on it
        source = """
            .equ SYNCBASE 30720
            LI R1, #SYNCBASE
            MTSR RSYNC, R1
            MFSR R0, COREID
            CMPI R0, #0
            BEQ watcher
            SINC #0
            MOV R2, R0
        delay:
            DEC R2
            BNE delay
            SDEC #0
            HALT
        watcher:
            LI R3, #SYNCBASE
            LDI R4, #20
        poll:
            LD R5, [R3]
            DEC R4
            BNE poll
            HALT
        """
        machine = Machine.from_assembly(source, WITH_SYNCHRONIZER)
        machine.run(max_cycles=100_000)
        assert machine.all_halted
        # the barrier completed and reset the word despite the reader
        assert machine.dm.read(30720) == 0

    def test_store_conflicts_serialize_with_policy(self):
        source = """
            .data 16384
            target: .word 0
            .code
            MFSR R0, COREID
            LI R1, #target
            ST R0, [R1]
            HALT
        """
        machine = Machine.from_assembly(
            source, PlatformConfig(policy=SyncPolicy.DXBAR_SYNC_STALL))
        machine.run(max_cycles=10_000)
        assert machine.trace.dm_bank_writes == 8
        assert machine.dm.read(16384) in range(8)


class TestMultiProgramIsolation:
    def test_two_machines_do_not_share_state(self):
        a = Machine.from_assembly("LI R1, #10\nST R1, [R0]\nHALT", ONE_CORE)
        b = Machine.from_assembly("LI R1, #20\nST R1, [R0]\nHALT", ONE_CORE)
        a.run()
        b.run()
        assert a.dm.read(0) == 10
        assert b.dm.read(0) == 20
