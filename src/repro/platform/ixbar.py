"""Instruction crossbar with broadcast support.

Per cycle, each IM bank can serve exactly one *address*; every core fetching
that address is served by the same bank read (instruction broadcast, the key
power mechanism of the paper's platform).  Cores requesting a different
address in the same bank lose arbitration and are clock gated for the cycle.

Arbitration is rotating-priority per bank so that divergent cores make
round-robin progress instead of starving: the serve rule is the data
crossbar's, :func:`~repro.platform.dxbar.serve_bank`, with every request
a read.
"""

from __future__ import annotations

from .config import PlatformConfig
from .dxbar import serve_bank
from .trace import ActivityTrace


class InstructionCrossbar:
    """Per-cycle fetch arbitration over the banked instruction memory."""

    def __init__(self, config: PlatformConfig, trace: ActivityTrace):
        self._config = config
        self._trace = trace
        self._priority = [0] * config.im_banks
        # serve_bank's per-position write flags: a fetch never writes.
        self._reads = (False,) * config.num_cores

    def arbitrate(self, requests: dict[int, int]) -> set[int]:
        """Arbitrate one cycle of fetch requests.

        :param requests: ``core id -> instruction address`` for every core
            that wants to fetch this cycle.
        :returns: the set of core ids whose fetch was served.  Exactly one
            IM bank access is counted per served address.
        """
        if not requests:
            return set()

        config, trace = self._config, self._trace

        # Fast path: full lockstep — every requester fetches one address
        # (the overwhelmingly common case on the improved design).
        addresses = requests.values()
        first = next(iter(addresses))
        if config.im_broadcast and all(a == first for a in addresses):
            served = set(requests)
            trace.im_bank_accesses += 1
            trace.im_fetches_served += len(served)
            trace.note_lockstep(len(served))
            return served

        by_bank: dict[int, tuple[list[int], list[int]]] = {}
        for core, address in requests.items():
            bank = config.im_bank_of(address)
            if bank in by_bank:
                by_bank[bank][0].append(core)
                by_bank[bank][1].append(address)
            else:
                by_bank[bank] = ([core], [address])

        granted: set[int] = set()
        largest_group = 0
        for bank, (cores, addresses) in by_bank.items():
            served, self._priority[bank] = serve_bank(
                self._priority[bank], cores, addresses, self._reads,
                config.im_broadcast, config.num_cores)
            for position in served:
                granted.add(cores[position])
            trace.im_bank_accesses += 1
            trace.im_fetches_served += len(served)
            if len(served) < len(cores):
                trace.im_conflict_cycles += 1
            if len(served) > largest_group:
                largest_group = len(served)

        trace.note_lockstep(largest_group)
        return granted
