"""GPU page-fault records.

A :class:`Fault` is the unit written by the GMMU into the hardware fault
buffer (paper §2.1): the faulting page, the access type, and the origin SM /
µTLB, plus the simulated arrival timestamp the paper's per-fault
instrumentation records (Fig 4).
"""

from __future__ import annotations

import enum


class AccessType(enum.IntEnum):
    """Kind of access that missed translation.

    ``PREFETCH`` models PTX ``prefetch.global.L2`` instructions (§3.2,
    Fig 5): they fault like loads but bypass the register scoreboard, the
    µTLB outstanding cap, and the SM rate throttle, and are *not* reissued if
    dropped (prefetches are hints).
    """

    READ = 0
    WRITE = 1
    PREFETCH = 2


class Fault:
    """One entry in the GPU fault buffer.

    Attributes:
        page: global 4 KiB page id of the faulting address.
        access: the :class:`AccessType`.
        sm_id: originating SM (per-fault metadata logged for Table 2).
        utlb_id: µTLB that holds the miss (``sm_id // sms_per_utlb``).
        warp_uid: id of the issuing warp; duplicate classification compares
            µTLBs, not warps, but the warp is needed to re-demand dropped
            faults.
        timestamp: simulated arrival time at the fault buffer (µs), Fig 4.
    """

    __slots__ = ("page", "access", "sm_id", "utlb_id", "warp_uid", "timestamp")

    def __init__(  # dim: page=page, timestamp=us
        self,
        page: int,
        access: AccessType,
        sm_id: int,
        utlb_id: int,
        warp_uid: int,
        timestamp: float,
    ) -> None:
        self.page = page
        self.access = access
        self.sm_id = sm_id
        self.utlb_id = utlb_id
        self.warp_uid = warp_uid
        self.timestamp = timestamp

    @property
    def is_prefetch(self) -> bool:
        return self.access == AccessType.PREFETCH

    @property
    def is_write(self) -> bool:
        return self.access == AccessType.WRITE

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Fault(page={self.page}, {self.access.name}, sm={self.sm_id}, "
            f"utlb={self.utlb_id}, warp={self.warp_uid}, t={self.timestamp:.2f})"
        )
