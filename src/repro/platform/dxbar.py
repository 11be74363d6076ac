"""Data crossbar with broadcast, locks and the synchronous-stall policy.

Per cycle, each DM bank serves one *address*.  Multiple cores reading the
same address are all served by one bank read (data broadcast); a write is
exclusive.  Conflicting requests (same bank, different address, or competing
writes) are serialized one per cycle while losing cores are clock gated.

Two mechanisms from the paper are layered on top:

- **Locks** (sec. IV-B): the synchronizer locks a checkpoint word during its
  read-modify-write; ordinary accesses to a locked address are refused.

- **Synchronous-stall policy** (sec. IV, first enhancement): when a bank
  conflict occurs among cores whose program counters are equal — i.e. the
  cores are executing the same instruction in lockstep — the cores that have
  already been served are stalled until *all* of them have been served, so
  the conflict does not break lockstep.  Without the policy (baseline
  design), served cores continue immediately and the cores drift apart.

The serve rule itself — which request of one bank wins one cycle, who
else that bank read serves, where the bank's priority moves — is one
pure function, :func:`serve_bank`, shared by :meth:`DataCrossbar.arbitrate`
and the fast engine's replays.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import PlatformConfig
from .memory import MemoryError_
from .trace import ActivityTrace


def serve_bank(priority: int, cores, addresses, writes, broadcast: bool,
               num_cores: int) -> tuple[list[int], int]:
    """The D-Xbar's serve rule for one bank and one cycle.

    ``cores``, ``addresses`` and ``writes`` describe the bank's requests,
    one position each.  The winner is the first requesting core at or
    after ``priority`` in cyclic core-id order.  A write serves the
    winner alone; a read serves the winner plus, under DM ``broadcast``,
    every other read of the same address.  The bank's priority becomes
    ``winner + 1``.  Returns the served positions, winner first, and that
    priority.

    A single requester is always served and moves the priority to
    ``core + 1``; the fast engine's group and lone-winner LD/ST paths
    apply that case inline once every request has a bank of its own.
    """
    win = 0
    best = num_cores
    for position, core in enumerate(cores):
        key = (core - priority) % num_cores
        if key < best:
            win, best = position, key
    served = [win]
    if broadcast and not writes[win]:
        address = addresses[win]
        for position, other in enumerate(addresses):
            if (other == address and position != win
                    and not writes[position]):
                served.append(position)
    return served, (cores[win] + 1) % num_cores


@dataclass(frozen=True, slots=True)
class DmRequest:
    """One core-side data-memory request for the current cycle."""

    core: int
    address: int
    is_write: bool
    value: int = 0
    pc: int = 0


@dataclass(frozen=True, slots=True)
class DmResult:
    """Outcome of one cycle of D-Xbar arbitration.

    :ivar completions: ``core -> read value`` (``None`` for completed
        writes); register writeback may happen now, PC advance may not.
    :ivar released: cores whose instruction is architecturally complete this
        cycle (advance PC).  Always a subset of current or previous
        completions.
    :ivar denied: cores that must retry next cycle.
    """

    completions: dict[int, int | None]
    released: set[int]
    denied: set[int]


class _ConflictGroup:
    """Book-keeping for one synchronous bank conflict (one per bank)."""

    __slots__ = ("members", "done")

    def __init__(self, members: set[int]):
        self.members = set(members)
        self.done: set[int] = set()

    @property
    def complete(self) -> bool:
        return self.done == self.members


class DataCrossbar:
    """Per-cycle data-memory arbitration."""

    def __init__(self, config: PlatformConfig, trace: ActivityTrace,
                 memory):
        self._config = config
        self._trace = trace
        self._memory = memory
        self._priority = [0] * config.dm_banks
        self._groups: dict[int, _ConflictGroup] = {}
        self.locked_addresses: set[int] = set()
        #: observers called as ``listener(cycle, denied_requests)`` on every
        #: cycle that refuses at least one request (``denied_requests`` is a
        #: tuple of the losing :class:`DmRequest`, in core-id order).  The
        #: fast engine's lockstep burst replays synchronous one-bank
        #: conflicts itself and calls these with the same arguments, cycle
        #: by cycle; every other conflict arbitrates here.  Listeners see
        #: them all, at no cost to the bursts when none is attached.
        self.conflict_listeners: list = []

    @property
    def held_cores(self) -> set[int]:
        """Cores served but still stalled inside a conflict group."""
        held = set()
        for group in self._groups.values():
            held |= group.done
        return held

    def arbitrate(self, requests: list[DmRequest],
                  busy_banks: set[int]) -> DmResult:
        """Arbitrate one cycle of data requests.

        :param requests: outstanding requests, one per core at most.
        :param busy_banks: banks whose port is used by the synchronizer
            this cycle (its accesses have priority).
        :raises MemoryError_: a request addresses a word outside DM, under
            either banking mode, before any bank is served.
        """
        if not requests:
            # Early-out on traffic-free cycles: no per-bank grouping, no
            # conflict bookkeeping, no counter updates.
            return DmResult({}, set(), set())
        config, trace = self._config, self._trace
        completions: dict[int, int | None] = {}
        released: set[int] = set()
        denied: set[int] = set()

        size = len(self._memory.words)
        by_bank: dict[int, list[DmRequest]] = {}
        for req in requests:
            if not 0 <= req.address < size:
                raise MemoryError_(
                    f"{'write to' if req.is_write else 'read from'} "
                    f"{req.address} out of range")
            by_bank.setdefault(config.dm_bank_of(req.address), []).append(req)

        for bank, reqs in by_bank.items():
            if bank in busy_banks:
                denied.update(r.core for r in reqs)
                continue

            usable = []
            for req in reqs:
                if req.address in self.locked_addresses:
                    denied.add(req.core)
                else:
                    usable.append(req)
            if not usable:
                continue

            group = self._groups.get(bank)
            if group is not None:
                # Only group members may use the bank until the group drains.
                member_reqs = [r for r in usable if r.core in group.members]
                denied.update(r.core for r in usable
                              if r.core not in group.members)
                usable = member_reqs
                if not usable:
                    continue

            served = self._serve_bank(bank, usable)
            losers = [r for r in usable if r.core not in served]
            denied.update(r.core for r in losers)

            if group is None and losers and config.has_dxbar_sync_stall:
                pcs = {r.pc for r in usable}
                if len(pcs) == 1:
                    # Synchronous conflict: hold served cores until the
                    # whole group has been served (paper sec. IV).
                    group = _ConflictGroup({r.core for r in usable})
                    self._groups[bank] = group

            for req in usable:
                if req.core not in served:
                    continue
                completions[req.core] = served[req.core]
                if group is not None:
                    group.done.add(req.core)
                else:
                    released.add(req.core)

            if group is not None and group.complete:
                released.update(group.members)
                del self._groups[bank]

        if denied:
            trace.dm_conflict_cycles += 1
            if self.conflict_listeners:
                losers = tuple(r for r in requests if r.core in denied)
                for listener in self.conflict_listeners:
                    listener(trace.cycles, losers)
        return DmResult(completions, released, denied)

    def _serve_bank(self, bank: int, reqs: list[DmRequest]) -> dict[int, int | None]:
        """Serve one bank for one cycle; returns core -> read value/None."""
        config, trace, memory = self._config, self._trace, self._memory
        served, self._priority[bank] = serve_bank(
            self._priority[bank], [r.core for r in reqs],
            [r.address for r in reqs], [r.is_write for r in reqs],
            config.dm_broadcast, config.num_cores)
        winner = reqs[served[0]]
        if winner.is_write:
            memory.write(winner.address, winner.value)
            trace.dm_bank_writes += 1
            trace.dm_served += 1
            return {winner.core: None}
        value = memory.read(winner.address)
        trace.dm_bank_reads += 1
        trace.dm_served += len(served)
        return {reqs[position].core: value for position in served}

    # ------------------------------------------------------------------
    # Lock management (driven by the synchronizer)
    # ------------------------------------------------------------------

    def lock(self, address: int) -> None:
        self.locked_addresses.add(address)

    def unlock(self, address: int) -> None:
        self.locked_addresses.discard(address)
