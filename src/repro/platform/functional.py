"""Functional (instruction-set) simulator — the timing-free reference.

Classic EDA practice pairs a cycle-accurate model with an independent
instruction-set simulator (ISS) and co-simulates: for race-free programs
both must compute identical results and identical per-core dynamic
instruction counts, while only the cycle model says anything about time.
This catches corruption bugs in the crossbar/synchronizer plumbing that
golden-model checks at the output boundary might miss.

The ISS executes cores round-robin, one instruction at a time, with
immediate memory access and an idealized barrier:

- ``SINC`` updates the checkpoint word atomically;
- ``SDEC`` decrements it; the core blocks until the counter reaches
  zero, at which point all flagged cores unblock and the word clears;
- a check-in that pushes the counter past the core count, or a
  check-out that finds it at zero, raises
  :class:`~repro.platform.synchronizer.SynchronizationError`, as the
  cycle machine does.

Its barrier arithmetic is written out here on purpose, apart from the
synchronizer's :func:`~repro.platform.synchronizer.checkpoint_rmw`
that the cycle machine and both of its fast engines share: co-simulation
is the independent check of that one kernel.

Equivalence with the cycle machine is guaranteed only for *race-free*
programs (no conflicting same-address accesses ordered differently by
timing) — which SPMD kernels over private channel buffers are.
"""

from __future__ import annotations

from ..cpu.executor import (
    ExecutionError,
    checkpoint_address,
    effective_address,
    execute_plain,
    store_operands,
)
from ..cpu.state import CoreMode, CoreState
from ..isa.program import Program
from ..isa.spec import Opcode
from .synchronizer import SynchronizationError, pack_checkpoint, \
    unpack_checkpoint


class FunctionalDeadlock(RuntimeError):
    """No core can make progress (unbalanced check-ins, stray SLEEP)."""


class FunctionalSimulator:
    """Timing-free SPMD execution of a program image.

    :param program: the image (same one the cycle machine loads).
    :param num_cores: SPMD width.
    :param dm_words: data-memory size in words.
    """

    def __init__(self, program: Program, num_cores: int = 8,
                 dm_words: int = 32768):
        self.program = program
        self.im = list(program.instructions)
        self.dm = [0] * dm_words
        for block in program.data:
            for offset, value in enumerate(block.values):
                self.dm[block.address + offset] = value & 0xFFFF
        self.cores = [CoreState(cid, num_cores) for cid in range(num_cores)]
        for core in self.cores:
            core.pc = program.entry
        self.instruction_counts = [0] * num_cores
        #: checkpoint address -> set of cores blocked at its check-out
        self._blocked: dict[int, set[int]] = {}

    # ------------------------------------------------------------------

    def _step_core(self, cid: int) -> bool:
        """Execute one instruction on core ``cid``; False if it idles."""
        core = self.cores[cid]
        if core.mode is not CoreMode.RUNNING:
            return False
        if core.pc >= len(self.im):
            raise ExecutionError(
                f"core {cid} ran past the program end (pc={core.pc})")
        ins = self.im[core.pc]
        op = ins.op
        self.instruction_counts[cid] += 1

        if op is Opcode.LD:
            value = self.dm[effective_address(core, ins)]
            core.regs[ins.rd] = value
            core.pc += 1
        elif op is Opcode.ST:
            address, value = store_operands(core, ins)
            self.dm[address] = value & 0xFFFF
            core.pc += 1
        elif op is Opcode.SINC:
            address = checkpoint_address(core, ins)
            flags, count = unpack_checkpoint(self.dm[address])
            count += 1
            if count > len(self.cores):
                raise SynchronizationError(
                    f"checkpoint @{address}: counter {count} exceeds the "
                    "core count; a core checked in twice")
            self.dm[address] = pack_checkpoint(flags | (1 << cid), count)
            core.pc += 1
        elif op is Opcode.SDEC:
            address = checkpoint_address(core, ins)
            flags, count = unpack_checkpoint(self.dm[address])
            count -= 1
            if count < 0:
                raise SynchronizationError(
                    f"checkpoint @{address}: check-out without check-in")
            core.pc += 1
            if count == 0:
                self.dm[address] = 0
                for waiter in self._blocked.pop(address, set()):
                    self.cores[waiter].mode = CoreMode.RUNNING
            else:
                self.dm[address] = pack_checkpoint(flags, count)
                core.mode = CoreMode.SLEEPING
                self._blocked.setdefault(address, set()).add(cid)
        else:
            execute_plain(core, ins)
        return True

    # ------------------------------------------------------------------

    @property
    def all_halted(self) -> bool:
        return all(core.mode is CoreMode.HALTED for core in self.cores)

    def run(self, max_steps: int = 50_000_000) -> list[int]:
        """Run to completion; returns per-core instruction counts."""
        steps = 0
        while not self.all_halted:
            progressed = False
            for cid in range(len(self.cores)):
                if self._step_core(cid):
                    progressed = True
                    steps += 1
                    if steps > max_steps:
                        raise ExecutionError(
                            f"exceeded {max_steps} instructions")
            if not progressed:
                sleepers = [(cid, core.pc)
                            for cid, core in enumerate(self.cores)
                            if core.mode is CoreMode.SLEEPING]
                raise FunctionalDeadlock(
                    f"no runnable core; sleeping (id, pc): {sleepers}")
        return list(self.instruction_counts)

    def dump(self, address: int, count: int) -> list[int]:
        """Read a DM region (mirrors :meth:`BankedMemory.dump`)."""
        return self.dm[address:address + count]
