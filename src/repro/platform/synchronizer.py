"""The hardware synchronizer — the paper's central contribution (sec. IV-A).

The synchronizer coordinates the ``SINC`` (check-in) and ``SDEC``
(check-out) instructions:

- Checkpoint state lives in ordinary data memory: one 16-bit word per
  synchronization point, holding the 1-bit core identity flags (bits 7..0)
  and the count of cores currently inside the section (bits 11..8).
- Concurrent requests for the same checkpoint are **merged**: however many
  cores check in or out together, the synchronizer performs a single
  two-cycle read-modify-write (read in the request cycle, write in the
  next).
- The checkpoint address is **locked** during the read-modify-write; late
  requests and ordinary accesses wait (the ISE's lock output signal).
- A core that checks out goes to sleep.  When the counter reaches zero the
  synchronizer **wakes every flagged core** in the same cycle and clears
  the word, so all participants resume in lockstep at the instruction after
  their ``SDEC``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import PlatformConfig
from .trace import ActivityTrace

FLAGS_MASK = 0x00FF
COUNT_SHIFT = 8
COUNT_MASK = 0x0F


def pack_checkpoint(flags: int, count: int) -> int:
    """Pack identity flags and core counter into a checkpoint word."""
    return (flags & FLAGS_MASK) | ((count & COUNT_MASK) << COUNT_SHIFT)


def unpack_checkpoint(word: int) -> tuple[int, int]:
    """Split a checkpoint word into (identity flags, core counter)."""
    return word & FLAGS_MASK, (word >> COUNT_SHIFT) & COUNT_MASK


def checkpoint_rmw(word, checkin_mask, checkins, checkouts, ncores):
    """One merged check-in/check-out read-modify-write of a checkpoint word.

    The one statement of the synchronizer's arithmetic: the reference
    write phase and both fast engines' replays call it.  Every
    expression is valid on a Python int and on a NumPy plane of words
    (the requests may stay scalar), so a batch of runs applies it to its
    whole ``(runs,)`` plane at once.

    :param checkin_mask: identity bits of the cores checking in.
    :param checkins: number of cores checking in.
    :param checkouts: number of cores checking out.
    :returns: ``(word_after, count_after, released, woken_mask, ok)`` —
        the word to write back, the counter after the merge, whether the
        barrier released (the counter reached zero on a check-out: the
        word clears and every flagged core wakes), the flagged cores to
        wake (0 unless released), and False for a protocol violation
        (the counter left ``0..ncores``; nothing may be written).
    """
    flags, count = unpack_checkpoint(word)
    flags = flags | checkin_mask
    count = count + checkins - checkouts
    released = (count == 0) & (checkouts > 0)
    woken = released * (flags & ((1 << ncores) - 1))
    ok = (count >= 0) & (count <= ncores)
    return ((released == 0) * pack_checkpoint(flags, count), count,
            released, woken, ok)


class SynchronizationError(RuntimeError):
    """A program violated the check-in/check-out protocol."""


@dataclass(slots=True)
class CheckpointStats:
    """Per-checkpoint usage statistics (for contention analysis)."""

    rmws: int = 0
    checkins: int = 0
    checkouts: int = 0
    wakeups: int = 0
    max_counter: int = 0
    blocked_requests: int = 0     # requests refused by lock/port conflicts


@dataclass(frozen=True, slots=True)
class SyncRequest:
    """One core-side SINC/SDEC request."""

    core: int
    address: int
    is_checkout: bool


@dataclass(slots=True)
class _Rmw:
    """A merged read-modify-write in flight (read done, write pending)."""

    address: int
    checkin_cores: tuple[int, ...]
    checkout_cores: tuple[int, ...]
    value_read: int


@dataclass(frozen=True, slots=True)
class SyncCompletion:
    """Effects of the write phase of one merged RMW."""

    address: int
    checkin_cores: tuple[int, ...]
    checkout_cores: tuple[int, ...]
    woken_cores: tuple[int, ...]     # flagged sleepers to wake (incl. none)
    barrier_released: bool           # counter reached zero
    #: checkpoint counter value after the write — the barrier occupancy
    #: observers (telemetry, crosscheck) would otherwise have to rederive
    count_after: int = 0


class Synchronizer:
    """Cycle-level model of the hardware synchronizer block."""

    def __init__(self, config: PlatformConfig, trace: ActivityTrace,
                 memory, dxbar):
        self._config = config
        self._trace = trace
        self._memory = memory
        self._dxbar = dxbar
        self._pending_writes: list[_Rmw] = []
        #: checkpoint DM address -> usage statistics
        self.stats: dict[int, CheckpointStats] = {}
        #: observers called as ``listener(cycle, completion)`` for every
        #: completed RMW — e.g. :class:`repro.sync.verifier.SyncCrosscheck`.
        #: The fast engines' replays report through :meth:`note_completion`
        #: too, so listeners see every barrier event whichever engine ran it.
        self.listeners: list = []

    @property
    def busy(self) -> bool:
        """True while any read-modify-write is in flight."""
        return bool(self._pending_writes)

    # ------------------------------------------------------------------
    # Cycle phases (driven by the machine)
    # ------------------------------------------------------------------

    def write_phase(self) -> tuple[list[SyncCompletion], set[int]]:
        """Complete the write cycle of RMWs started last cycle.

        :returns: the completions and the set of DM banks whose port the
            synchronizer occupies this cycle.
        """
        pending = self._pending_writes
        completions = [self._complete(rmw) for rmw in pending]
        busy_banks = {self._config.dm_bank_of(rmw.address) for rmw in pending}
        self._pending_writes = []
        return completions, busy_banks

    def read_phase(self, requests: list[SyncRequest],
                   busy_banks: set[int]) -> tuple[set[int], set[int]]:
        """Start RMWs for this cycle's merged requests.

        Requests to a locked checkpoint or to a bank whose port is already
        in use this cycle are refused (the core retries next cycle).

        :returns: ``(accepted core ids, banks now busy)``.
        """
        by_addr: dict[int, list[SyncRequest]] = {}
        for req in requests:
            by_addr.setdefault(req.address, []).append(req)

        accepted: set[int] = set()
        used_banks = set(busy_banks)
        for address, group in by_addr.items():
            bank = self._config.dm_bank_of(address)
            stats = self.stats.get(address)
            if stats is None:
                stats = self.stats[address] = CheckpointStats()
            if address in self._dxbar.locked_addresses or bank in used_banks:
                stats.blocked_requests += len(group)
                continue
            value = self._memory.read(address)
            self._trace.dm_bank_reads += 1
            self._trace.sync_rmw_ops += 1
            stats.rmws += 1
            self._dxbar.lock(address)
            used_banks.add(bank)
            accepted.update(req.core for req in group)
            self._pending_writes.append(_Rmw(
                address,
                tuple(req.core for req in group if not req.is_checkout),
                tuple(req.core for req in group if req.is_checkout),
                value))
        return accepted, used_banks

    # ------------------------------------------------------------------

    def _complete(self, rmw: _Rmw) -> SyncCompletion:
        """Apply one merged RMW's write and compute its wake effects."""
        checkins, checkouts = rmw.checkin_cores, rmw.checkout_cores
        word, count, released, woken, ok = checkpoint_rmw(
            rmw.value_read, sum(1 << core for core in checkins),
            len(checkins), len(checkouts), self._config.num_cores)
        if not ok:
            raise SynchronizationError(
                f"checkpoint @{rmw.address}: more check-outs than check-ins "
                f"(cores {list(checkouts)})" if count < 0 else
                f"checkpoint @{rmw.address}: counter {count} exceeds the "
                "core count; a core checked in twice")
        trace = self._trace
        trace.dm_bank_writes += 1
        trace.sync_checkins += len(checkins)
        trace.sync_checkouts += len(checkouts)
        trace.sync_wakeups += released
        self._memory.write(rmw.address, word)
        self._dxbar.unlock(rmw.address)
        return self.note_completion(trace.cycles, rmw.address, checkins,
                                    checkouts, count, released, woken)

    def note_completion(self, cycle: int, address: int, checkin_cores: tuple,
                        checkout_cores: tuple, count: int, released: bool,
                        woken: int, replayed: bool = False):
        """Credit one merged RMW's write to its checkpoint's statistics
        and report it to the listeners.

        The reference write phase and both fast engines' replays all end
        here, so the credit and the event stream are the same whichever
        engine ran the barrier.

        :param cycle: the clock after the write (what listeners see).
        :param count: the counter after the write.
        :param woken: the flagged cores to wake, as
            :func:`checkpoint_rmw`'s mask.
        :param replayed: a fast path ran both cycles in one update, so the
            read phase's ``rmws`` credit lands here too, and the
            completion is built only when a listener needs it.
        :returns: the :class:`SyncCompletion`, or None when replayed
            with no listener attached.
        """
        stats = self.stats.get(address)
        if stats is None:
            stats = self.stats[address] = CheckpointStats()
        stats.rmws += replayed
        stats.checkins += len(checkin_cores)
        stats.checkouts += len(checkout_cores)
        if count > stats.max_counter:
            stats.max_counter = count
        stats.wakeups += released
        if replayed and not self.listeners:
            return None
        completion = SyncCompletion(
            address, checkin_cores, checkout_cores,
            tuple(cid for cid in range(self._config.num_cores)
                  if woken >> cid & 1),
            released, count)
        for listener in self.listeners:
            listener(cycle, completion)
        return completion

    # ------------------------------------------------------------------

    def stats_report(self, base: int | None = None,
                     names: dict[int, str] | None = None) -> str:
        """Per-checkpoint contention table.

        :param base: when given, addresses print as indices off ``base``.
        :param names: optional ``index -> label`` map (e.g. from the
            compiler's :class:`~repro.sync.points.SyncPointAllocator`).
        """
        lines = [f"{'checkpoint':>12s}  {'rmws':>6s}  {'in':>6s}  "
                 f"{'out':>6s}  {'wakes':>6s}  {'maxcnt':>6s}  "
                 f"{'blocked':>7s}  name"]
        for address in sorted(self.stats):
            s = self.stats[address]
            if base is not None:
                index = address - base
                label = f"#{index}"
                name = (names or {}).get(index, "")
            else:
                label = f"@{address}"
                name = ""
            lines.append(
                f"{label:>12s}  {s.rmws:6d}  {s.checkins:6d}  "
                f"{s.checkouts:6d}  {s.wakeups:6d}  {s.max_counter:6d}  "
                f"{s.blocked_requests:7d}  {name}")
        return "\n".join(lines)
