"""Platform configuration for the ULP multi-core architecture.

Defaults mirror the target platform of Dogan et al. (DATE 2013), sec. III:
8 cores, a 64 kB data memory in 16 banks, a 96 kB instruction memory in
8 banks, central I-/D-crossbars with broadcast support, and (optionally)
the hardware synchronizer.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class SyncPolicy(enum.Flag):
    """Which parts of the paper's synchronization technique are enabled.

    The paper evaluates two designs: *without synchronizer* (the DATE-2012
    predecessor) and *with synchronizer* (both mechanisms).  The individual
    flags expose the in-between points for ablation studies.

    ``HW_BARRIER``       — the hardware synchronizer block is present and
                           the ``SINC``/``SDEC`` ISE is honoured.
    ``DXBAR_SYNC_STALL`` — the enhanced D-Xbar serving policy: on a data
                           bank conflict among synchronous cores (equal
                           program counters) the already-served cores are
                           stalled until the whole group has been served.
    """

    NONE = 0
    HW_BARRIER = enum.auto()
    DXBAR_SYNC_STALL = enum.auto()
    FULL = HW_BARRIER | DXBAR_SYNC_STALL

    def flag_names(self) -> tuple[str, ...]:
        """The primitive member names in declaration order.

        The stable wire form of a policy: unlike ``repr`` or the raw
        ``value``, it survives member renumbering and is readable in
        cache keys and JSON payloads.
        """
        return tuple(
            flag.name for flag
            in (SyncPolicy.HW_BARRIER, SyncPolicy.DXBAR_SYNC_STALL)
            if self & flag)

    @classmethod
    def from_flag_names(cls, names) -> "SyncPolicy":
        """Inverse of :meth:`flag_names`."""
        policy = cls.NONE
        for name in names:
            policy |= cls[name]
        return policy


@dataclass(frozen=True)
class PlatformConfig:
    """Structural parameters of the simulated platform.

    :param num_cores: number of processing cores.
    :param dm_banks: number of data-memory banks (contiguous block mapping).
    :param dm_bank_words: 16-bit words per DM bank.
    :param im_banks: number of instruction-memory banks.
    :param im_bank_words: instructions per IM bank.
    :param policy: which synchronization mechanisms are enabled.
    :param max_cycles: safety bound for :meth:`Machine.run`.
    :param dm_interleaved: map DM addresses to banks low-order interleaved
        (``bank = addr % banks``) instead of the default contiguous blocks.

    Default bank mapping is contiguous ("block") in both memories: bank
    *b* of the DM covers ``[b * dm_bank_words, (b+1) * dm_bank_words)``.
    Each core's private channel buffer conventionally occupies its own
    bank, so bank conflicts arise from *shared* data — the conflict class
    the paper's enhanced D-Xbar policy addresses.  The interleaved option
    exists for architecture exploration: under SPMD private buffers it
    makes lockstep cores hit one bank at different addresses on *every*
    access, which is why the paper's platform uses block banking.
    """

    num_cores: int = 8
    dm_banks: int = 16
    dm_bank_words: int = 2048
    im_banks: int = 8
    im_bank_words: int = 6144
    policy: SyncPolicy = SyncPolicy.FULL
    max_cycles: int = 50_000_000
    dm_interleaved: bool = False
    #: crossbar broadcast support (the DATE-2012 predecessor's feature the
    #: synchronization technique exists to exploit); disable for ablation.
    im_broadcast: bool = True
    dm_broadcast: bool = True

    def __post_init__(self):
        if self.num_cores < 1:
            raise ValueError("num_cores must be positive")
        if self.num_cores > 8:
            raise ValueError(
                "checkpoint words carry 8 identity flags (paper sec. IV), "
                "so at most 8 cores are supported")
        if self.dm_banks < 1 or self.im_banks < 1:
            raise ValueError("bank counts must be positive")

    @property
    def dm_words(self) -> int:
        return self.dm_banks * self.dm_bank_words

    @property
    def im_words(self) -> int:
        return self.im_banks * self.im_bank_words

    @property
    def has_synchronizer(self) -> bool:
        return bool(self.policy & SyncPolicy.HW_BARRIER)

    @property
    def has_dxbar_sync_stall(self) -> bool:
        return bool(self.policy & SyncPolicy.DXBAR_SYNC_STALL)

    def to_key(self) -> tuple:
        """Stable identity tuple for hashing and cache keys.

        The field order is fixed *here*, so keys do not depend on
        ``repr`` formatting or pickle dict order.
        """
        return ("PlatformConfig", self.num_cores, self.dm_banks,
                self.dm_bank_words, self.im_banks, self.im_bank_words,
                self.policy.flag_names(), self.max_cycles,
                self.dm_interleaved, self.im_broadcast, self.dm_broadcast)

    def to_json(self) -> dict:
        """JSON-safe dict; round-trips through :meth:`from_json`."""
        return {
            "num_cores": self.num_cores,
            "dm_banks": self.dm_banks,
            "dm_bank_words": self.dm_bank_words,
            "im_banks": self.im_banks,
            "im_bank_words": self.im_bank_words,
            "policy": list(self.policy.flag_names()),
            "max_cycles": self.max_cycles,
            "dm_interleaved": self.dm_interleaved,
            "im_broadcast": self.im_broadcast,
            "dm_broadcast": self.dm_broadcast,
        }

    @classmethod
    def from_json(cls, payload: dict) -> "PlatformConfig":
        data = dict(payload)
        data["policy"] = SyncPolicy.from_flag_names(data.get("policy", ()))
        return cls(**data)

    def dm_bank_of(self, address: int) -> int:
        """Bank index holding DM word ``address``."""
        if self.dm_interleaved:
            return address % self.dm_banks
        return address // self.dm_bank_words

    def im_bank_of(self, address: int) -> int:
        """Bank index holding IM word ``address``."""
        return address // self.im_bank_words


#: The paper's improved architecture (sec. III/IV).
WITH_SYNCHRONIZER = PlatformConfig(policy=SyncPolicy.FULL)

#: The DATE-2012 predecessor used as the baseline ("w/o synchronizer").
WITHOUT_SYNCHRONIZER = PlatformConfig(policy=SyncPolicy.NONE)
