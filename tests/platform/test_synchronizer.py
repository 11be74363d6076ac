"""Tests for the hardware synchronizer block."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.platform.config import PlatformConfig, SyncPolicy
from repro.platform.dxbar import DataCrossbar
from repro.platform.memory import BankedMemory
from repro.platform.synchronizer import (
    SynchronizationError,
    Synchronizer,
    SyncRequest,
    checkpoint_rmw,
    pack_checkpoint,
    unpack_checkpoint,
)
from repro.platform.trace import ActivityTrace


@given(st.integers(0, 0xFF), st.integers(0, 0xF))
def test_checkpoint_word_roundtrip(flags, count):
    assert unpack_checkpoint(pack_checkpoint(flags, count)) == (flags, count)


def test_checkpoint_word_matches_paper_layout():
    # identity flags in bits 7..0, core counter above them
    assert pack_checkpoint(0b10000001, 2) == 0x0281


@st.composite
def merged_requests(draw):
    """A checkpoint word, disjoint check-in/check-out core sets, ncores."""
    ncores = draw(st.integers(1, 8))
    roles = draw(st.lists(st.sampled_from(("idle", "in", "out")),
                          min_size=ncores, max_size=ncores))
    checkins = [cid for cid, role in enumerate(roles) if role == "in"]
    checkouts = [cid for cid, role in enumerate(roles) if role == "out"]
    return draw(st.integers(0, 0xFFFF)), checkins, checkouts, ncores


@given(merged_requests(), st.lists(st.integers(0, 0xFFFF), max_size=4),
       st.data())
def test_checkpoint_rmw_kernel(request, others, data):
    word, checkins, checkouts, ncores = request
    mask = sum(1 << cid for cid in checkins)
    args = (mask, len(checkins), len(checkouts), ncores)
    result = checkpoint_rmw(word, *args)

    # a (runs,) plane of words: each row equals the scalar call
    row = data.draw(st.integers(0, len(others)))
    plane = np.array(others[:row] + [word] + others[row:], dtype=np.int64)
    assert tuple(int(part[row]) for part in checkpoint_rmw(plane, *args)) \
        == tuple(int(part) for part in result)

    # the rules, written out literally
    word_after, count_after, released, woken, ok = result
    flags, count = unpack_checkpoint(word)
    flags |= mask
    assert count_after == count + len(checkins) - len(checkouts)
    assert ok == (0 <= count_after <= ncores)
    assert released == (count_after == 0 and bool(checkouts))
    if released:
        assert word_after == 0
        assert woken == sum(1 << cid for cid in range(ncores)
                            if flags & (1 << cid))
    else:
        assert woken == 0
        if ok:
            assert unpack_checkpoint(word_after) == (flags, count_after)


class SyncHarness:
    """Drives the synchronizer through its two phases like the machine."""

    def __init__(self, num_cores=8):
        self.config = PlatformConfig(
            num_cores=num_cores, dm_banks=4, dm_bank_words=16,
            policy=SyncPolicy.FULL)
        self.trace = ActivityTrace()
        self.memory = BankedMemory(self.config.dm_banks,
                                   self.config.dm_bank_words)
        self.dxbar = DataCrossbar(self.config, self.trace, self.memory)
        self.sync = Synchronizer(self.config, self.trace, self.memory,
                                 self.dxbar)

    def cycle(self, requests=()):
        completions, busy = self.sync.write_phase()
        accepted, busy = self.sync.read_phase(list(requests), busy)
        return completions, accepted


class TestCheckIn:
    def test_single_checkin_takes_two_cycles(self):
        h = SyncHarness()
        _, accepted = h.cycle([SyncRequest(0, 5, False)])
        assert accepted == {0}
        assert h.memory.read(5) == 0            # write happens next cycle
        completions, _ = h.cycle()
        assert completions[0].checkin_cores == (0,)
        assert unpack_checkpoint(h.memory.read(5)) == (0b1, 1)

    def test_merged_checkins_single_rmw(self):
        h = SyncHarness()
        reqs = [SyncRequest(c, 5, False) for c in range(8)]
        _, accepted = h.cycle(reqs)
        assert accepted == set(range(8))
        h.cycle()
        assert unpack_checkpoint(h.memory.read(5)) == (0xFF, 8)
        assert h.trace.sync_rmw_ops == 1         # one merged RMW
        assert h.trace.dm_bank_reads == 1
        assert h.trace.dm_bank_writes == 1

    def test_lock_blocks_late_requests(self):
        h = SyncHarness()
        _, accepted = h.cycle([SyncRequest(0, 5, False)])
        assert accepted == {0}
        # next cycle: write phase of core 0 occupies the checkpoint;
        # core 1's request to the same (still locked, then same-bank-busy)
        # word must wait.
        completions, accepted = h.cycle([SyncRequest(1, 5, False)])
        assert completions and accepted == set()
        _, accepted = h.cycle([SyncRequest(1, 5, False)])
        assert accepted == {1}

    def test_distinct_checkpoints_in_distinct_banks_parallel(self):
        h = SyncHarness()
        reqs = [SyncRequest(0, 5, False), SyncRequest(1, 20, False)]
        _, accepted = h.cycle(reqs)
        assert accepted == {0, 1}
        assert h.trace.sync_rmw_ops == 2

    def test_same_bank_distinct_checkpoints_serialized(self):
        h = SyncHarness()
        reqs = [SyncRequest(0, 5, False), SyncRequest(1, 6, False)]
        _, accepted = h.cycle(reqs)
        assert len(accepted) == 1                # one bank port per cycle


class TestCheckOutAndWake:
    def test_barrier_releases_when_counter_reaches_zero(self):
        h = SyncHarness(num_cores=2)
        h.cycle([SyncRequest(0, 5, False), SyncRequest(1, 5, False)])
        h.cycle()
        # core 0 checks out first and must wait
        h.cycle([SyncRequest(0, 5, True)])
        completions, _ = h.cycle()
        assert completions[0].checkout_cores == (0,)
        assert not completions[0].barrier_released
        # core 1 checks out -> barrier releases and wakes both flagged cores
        h.cycle([SyncRequest(1, 5, True)])
        completions, _ = h.cycle()
        comp = completions[0]
        assert comp.barrier_released
        assert comp.woken_cores == (0, 1)
        assert h.memory.read(5) == 0             # word reinitialized
        assert h.trace.sync_wakeups == 1

    def test_merged_checkout_releases_immediately(self):
        h = SyncHarness(num_cores=4)
        h.cycle([SyncRequest(c, 5, False) for c in range(4)])
        h.cycle()
        h.cycle([SyncRequest(c, 5, True) for c in range(4)])
        completions, _ = h.cycle()
        assert completions[0].barrier_released
        assert set(completions[0].woken_cores) == {0, 1, 2, 3}

    def test_mixed_inc_dec_merge(self):
        h = SyncHarness(num_cores=4)
        h.cycle([SyncRequest(0, 5, False)])
        h.cycle()
        # core 1 checks in while core 0 checks out, same cycle
        h.cycle([SyncRequest(1, 5, False), SyncRequest(0, 5, True)])
        completions, _ = h.cycle()
        assert not completions[0].barrier_released
        flags, count = unpack_checkpoint(h.memory.read(5))
        assert count == 1 and flags == 0b11

    def test_checkout_without_checkin_is_protocol_error(self):
        h = SyncHarness()
        h.cycle([SyncRequest(0, 5, True)])
        with pytest.raises(SynchronizationError):
            h.cycle()

    def test_double_checkin_detected(self):
        h = SyncHarness(num_cores=2)
        h.cycle([SyncRequest(0, 5, False), SyncRequest(1, 5, False)])
        h.cycle()
        # a third check-in pushes the counter past the core count
        h.cycle([SyncRequest(0, 5, False)])
        with pytest.raises(SynchronizationError):
            h.cycle()
