"""Differential proof that the array-of-machines batch engine is exact.

Every batch here is checked against serial execution of the same runs:
after :func:`repro.cpu.vec.run_batch` plus a scalar ``machine.run()``
finish, each machine must be in bit-identical state — every
:class:`~repro.platform.trace.ActivityTrace` counter, every register,
flag, PC and mode of every core, every data-memory word — to its twin
that never entered a batch.

Coverage: same-image batches with divergent inputs on all three kernels
and four designs, mixed ``n_samples`` (input-dependent group splits),
cross-run divergent memory addresses, per-core divergence and sync
boundaries (peel-out), cycle-limit horizons, machines with pending IRQs
(refused at entry), and NumPy-unavailable degradation.
"""

import pytest

from repro.cpu import vec
from repro.kernels.layout import BANK_WORDS
from repro.kernels.suite import (
    DESIGNS,
    collect_benchmark,
    prepare_benchmark,
    run_benchmark,
)
from repro.platform import (
    Machine,
    PlatformConfig,
    SimulationLimitError,
    SyncPolicy,
    WITHOUT_SYNCHRONIZER,
)

from ..oracles import assert_equivalent, machine_state

N_SAMPLES = 16
MAX_CYCLES = 50_000_000


def channels(n_samples, num_cores=8, salt=0):
    return [[(1000 + 37 * core + 13 * i + salt) % 4096
             for i in range(n_samples)]
            for core in range(num_cores)]


def run_family(bench, design_name, inputs, *, max_cycles=MAX_CYCLES):
    """(serial runs, batched runs, batch stats) for one input family."""
    design = DESIGNS[design_name]
    serial = [run_benchmark(bench, design, chans, max_cycles=max_cycles)
              for chans in inputs]
    prepared = [prepare_benchmark(bench, design, chans)
                for chans in inputs]
    stats = vec.run_batch([machine for machine, _ in prepared],
                          limit=max_cycles)
    for machine, _ in prepared:
        machine.run(max_cycles=max_cycles)
    batched = [collect_benchmark(machine, bench, design, n)
               for machine, n in prepared]
    return serial, batched, stats


class TestKernelDifferential:
    @pytest.mark.parametrize("design_name", sorted(DESIGNS))
    @pytest.mark.parametrize("bench", ("MRPFLTR", "MRPDLN", "SQRT32"))
    def test_batched_matches_serial_bit_for_bit(self, bench, design_name):
        inputs = [channels(N_SAMPLES, salt=salt * 7) for salt in range(5)]
        serial, batched, stats = run_family(bench, design_name, inputs)
        for s, b in zip(serial, batched):
            assert s.outputs == b.outputs
            assert_equivalent(b.machine, s.machine)
        assert stats.batched == 5
        assert stats.families == 1

    def test_lockstep_kernel_vectorizes_to_completion(self):
        inputs = [channels(N_SAMPLES, salt=salt) for salt in range(4)]
        _, batched, stats = run_family("MRPFLTR", "without-sync", inputs)
        assert stats.peels == {"stop": 4}
        assert stats.early_peels == 0
        assert stats.max_width == 4 * 8
        for run in batched:
            engine = run.machine.engine_stats
            assert engine.batched_runs == 4
            assert engine.vector_width == 32
            assert engine.vector_cycles > 0
            assert engine.peel_count == 0
            assert engine.engaged

    def test_mixed_n_samples_split_groups_stay_exact(self):
        # same image, different loop trip counts: the groups split at
        # the first branch on n and keep vectorizing separately
        inputs = [channels(8), channels(16), channels(8, salt=3),
                  channels(16, salt=9)]
        serial, batched, stats = run_family("MRPDLN", "without-sync",
                                            inputs)
        for s, b in zip(serial, batched):
            assert s.outputs == b.outputs
            assert_equivalent(b.machine, s.machine)
        assert stats.vector_cycles > 0

    def test_per_core_divergence_peels_and_stays_exact(self):
        # SQRT32 without sync points diverges across cores almost
        # immediately — the batch peels every run back to the scalar
        # engine, which must finish bit-exactly
        inputs = [channels(N_SAMPLES, salt=salt * 11) for salt in range(4)]
        serial, batched, stats = run_family("SQRT32", "without-sync",
                                            inputs)
        for s, b in zip(serial, batched):
            assert_equivalent(b.machine, s.machine)
        assert stats.peels.get("diverge", 0) == 4
        assert all(b.machine.engine_stats.peel_count == 1 for b in batched)

    def test_sync_barriers_stay_batched(self):
        # SINC/SDEC checkpoints used to peel every run; the vectorized
        # barrier RMW now carries with-sync runs to their natural end
        inputs = [channels(N_SAMPLES, salt=salt) for salt in range(3)]
        serial, batched, stats = run_family("MRPFLTR", "with-sync", inputs)
        for s, b in zip(serial, batched):
            assert s.outputs == b.outputs
            assert_equivalent(b.machine, s.machine)
        assert stats.peels.get("sync", 0) == 0
        assert stats.peels.get("stop", 0) == 3
        assert all(b.machine.engine_stats.sync_fused_rmws > 0
                   for b in batched)
        # the scalar finish starts at HALT, so the barrier work was done
        # vectorized, not by the scalar engine after a peel
        assert all(b.machine.engine_stats.peel_count == 0 for b in batched)

    def test_mixed_arrival_trip_counts_split_through_barriers(self):
        # with-sync runs with different loop trip counts reach each
        # barrier at different logical cycles: the family splits at the
        # loop-bound branch, every subgroup replays its own merged
        # barrier RMWs, and equal-PC subgroups re-merge on the worklist
        inputs = [channels(8), channels(16), channels(8, salt=3),
                  channels(16, salt=9)]
        serial, batched, stats = run_family("MRPDLN", "with-sync", inputs)
        for s, b in zip(serial, batched):
            assert s.outputs == b.outputs
            assert_equivalent(b.machine, s.machine)
        assert stats.peels == {"stop": 4}
        assert all(b.machine.engine_stats.term_sync > 0 for b in batched)
        assert all(b.machine.engine_stats.peel_count == 0 for b in batched)

    def test_mixed_families_some_runs_peel_and_some_finish(self):
        # one batch, two same-design families: the MRPFLTR runs carry
        # their barriers to HALT vectorized while the SQRT32 runs
        # diverge per-core and peel — the peeled runs' scalar finish
        # must re-merge with the batch results bit-exactly
        design = DESIGNS["with-sync"]
        mrp_inputs = [channels(N_SAMPLES, salt=s) for s in range(3)]
        sqrt_inputs = [channels(N_SAMPLES, salt=s * 11) for s in range(2)]
        serial = ([run_benchmark("MRPFLTR", design, c) for c in mrp_inputs]
                  + [run_benchmark("SQRT32", design, c)
                     for c in sqrt_inputs])
        prepared = ([prepare_benchmark("MRPFLTR", design, c)
                     for c in mrp_inputs]
                    + [prepare_benchmark("SQRT32", design, c)
                       for c in sqrt_inputs])
        stats = vec.run_batch([m for m, _ in prepared],
                              limit=MAX_CYCLES)
        for machine, _ in prepared:
            machine.run(max_cycles=MAX_CYCLES)
        assert stats.families == 2
        assert stats.peels.get("stop") == 3
        assert stats.peels.get("diverge") == 2
        benches = ["MRPFLTR"] * 3 + ["SQRT32"] * 2
        for (machine, n), s, bench in zip(prepared, serial, benches):
            b = collect_benchmark(machine, bench, design, n)
            assert b.outputs == s.outputs
            assert_equivalent(b.machine, s.machine)

    def test_cycle_limit_horizon_is_bit_exact(self):
        design = DESIGNS["without-sync"]
        limit = 120
        errors = []
        machines = []
        for salt in range(3):
            chans = channels(N_SAMPLES, salt=salt * 5)
            serial, _ = prepare_benchmark("MRPFLTR", design, chans)
            with pytest.raises(SimulationLimitError) as info:
                serial.run(max_cycles=limit)
            errors.append(str(info.value))
            batched, _ = prepare_benchmark("MRPFLTR", design, chans)
            machines.append((batched, serial))
        stats = vec.run_batch([m for m, _ in machines], limit=limit)
        assert stats.peels.get("horizon", 0) == 3
        for index, (batched, serial) in enumerate(machines):
            with pytest.raises(SimulationLimitError) as info:
                batched.run(max_cycles=limit)
            assert str(info.value) == errors[index]
            assert_equivalent(batched, serial)


# SPMD pointer chase: every core works in its own private bank (no
# arbitration), but the pointer it loads is a per-run input — so the
# second LD's addresses diverge across runs, not across cores.
CROSS_RUN_ADDRESS_PROGRAM = f"""
.entry main
main:
    MFSR R0, COREID
    LI R1, #{BANK_WORDS}
    MUL R1, R0, R1          ; R1 = this core's private bank base
    LD R2, [R1 + #20]       ; per-run pointer (bank-relative)
    ADD R2, R1, R2
    LD R3, [R2]             ; cross-run divergent address
    ADDI R3, R3, #1
    ST R3, [R1 + #21]
    HALT
"""

#: bank-relative pointer that sends core 7 past the end of data memory
FAULT_POINTER = 16 * BANK_WORDS - 7 * BANK_WORDS


class TestMemoryBoundaries:
    def _machines(self, pointers):
        """Pointer-chase machines, one per run, per-run DM contents."""
        machines = []
        for index, pointer in enumerate(pointers):
            machine = Machine.from_assembly(CROSS_RUN_ADDRESS_PROGRAM,
                                            WITHOUT_SYNCHRONIZER)
            for core in range(8):
                machine.dm.write(core * BANK_WORDS + 20, pointer)
                target = core * BANK_WORDS + pointer
                if target < len(machine.dm.words):
                    machine.dm.write(target, 100 * index + 3 * core)
            machines.append(machine)
        return machines

    def test_cross_run_addresses_split_groups(self):
        pointers = [100, 200, 100, 300]
        serial = self._machines(pointers)
        for machine in serial:
            machine.run(max_cycles=1000)
        batched = self._machines(pointers)
        stats = vec.run_batch(batched)
        for machine in batched:
            machine.run(max_cycles=1000)
        for b, s in zip(batched, serial):
            assert machine_state(b) == machine_state(s)
        # the group split by address but every run still finished
        # inside the vectorized engine
        assert stats.peels == {"stop": 4}
        assert stats.early_peels == 0

    def test_out_of_range_address_peels_to_reference_error(self):
        pointers = [FAULT_POINTER, 100]
        serial = self._machines(pointers)
        serial_outcomes = []
        for machine in serial:
            try:
                machine.run(max_cycles=1000)
                serial_outcomes.append(None)
            except Exception as exc:
                serial_outcomes.append(f"{type(exc).__name__}: {exc}")
        assert serial_outcomes[0] is not None      # the fault is real
        batched = self._machines(pointers)
        stats = vec.run_batch(batched)
        assert stats.peels.get("fault", 0) == 1
        for machine, expected in zip(batched, serial_outcomes):
            if expected is None:
                machine.run(max_cycles=1000)
            else:
                with pytest.raises(Exception) as info:
                    machine.run(max_cycles=1000)
                assert f"{type(info.value).__name__}: {info.value}" \
                    == expected
        for b, s in zip(batched, serial):
            assert machine_state(b) == machine_state(s)


class TestEntryGuards:
    def _kernel_machine(self, salt=0, **kwargs):
        machine, _ = prepare_benchmark("MRPFLTR", DESIGNS["without-sync"],
                                       channels(N_SAMPLES, salt=salt),
                                       **kwargs)
        return machine

    def test_pending_irq_machines_are_refused_untouched(self):
        # a machine with a timer cannot batch (the batch cannot honour
        # absolute-cycle firings) — it must come back untouched while
        # its batch-mates proceed
        timed = self._kernel_machine(salt=1)
        timed.add_timer(50, offset=50)
        plain = [self._kernel_machine(salt=s) for s in (2, 3)]
        stats = vec.run_batch([timed] + plain)
        assert stats.rejected == 1
        assert stats.batched == 2
        assert stats.refusals == {"irq": 1}
        assert timed.trace.cycles == 0
        assert timed.engine_stats.batched_runs == 0
        assert all(m.trace.cycles > 0 for m in plain)

    def test_reference_engine_machines_are_refused(self):
        machine = self._kernel_machine(fast_engine=False)
        stats = vec.run_batch([machine, self._kernel_machine(salt=4)])
        assert stats.rejected == 1
        assert stats.refusals == {"engine": 1}
        assert "refusals" in stats.as_dict()
        assert machine.trace.cycles == 0

    def test_non_uniform_pcs_are_refused(self):
        machine = self._kernel_machine()
        machine.cores[3].pc += 1
        assert vec.batch_entry_guard(machine, MAX_CYCLES) == "pc"

    def test_non_running_cores_are_refused(self):
        from repro.cpu.state import CoreMode

        machine = self._kernel_machine()
        machine.cores[0].mode = CoreMode.SLEEPING
        assert vec.batch_entry_guard(machine, MAX_CYCLES) == "mode"

    def test_no_broadcast_config_is_refused(self):
        config = PlatformConfig(num_cores=8, policy=SyncPolicy.NONE,
                                im_broadcast=False)
        machine = self._kernel_machine(config=config)
        assert vec.batch_entry_guard(machine, MAX_CYCLES) == "no-broadcast"

    def test_exhausted_budget_is_refused(self):
        machine = self._kernel_machine()
        with pytest.raises(SimulationLimitError):
            machine.run(max_cycles=64)
        assert vec.batch_entry_guard(machine, 64) == "limit"

    def test_empty_batch(self):
        stats = vec.run_batch([])
        assert stats.requested == 0
        assert stats.as_dict()["families"] == 0


class TestCodegen:
    def test_vec_table_shares_scalar_block_discovery(self):
        from repro.kernels.suite import build_program

        program = build_program("MRPFLTR", False)
        table = vec.table_for(program)
        assert table is vec.table_for(program)      # digest-keyed LRU
        block = table.at(program.entry)
        assert block is not None
        assert "def run(S, idx):" in block.source

    def test_single_instruction_blocks_compile(self):
        # unlike scalar superblocks (MIN_BLOCK=2), a lone vectorized
        # terminator still pays across hundreds of lanes
        assert vec.MIN_BLOCK == 1
