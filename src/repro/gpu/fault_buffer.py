"""The hardware GPU fault buffer.

The GMMU writes fault information into a circular array on the device,
configured and managed by the UVM driver (paper §2.1).  The driver fetches
entries host-side in batches; a *replay* is preceded by a buffer flush that
drops every un-fetched entry — "only faults that still need to be serviced
will be reissued" (§4.2).  Faults arriving while the buffer is full are
dropped by hardware and likewise reissue after the next replay.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List

from .fault import Fault


class FaultBuffer:
    """Bounded FIFO of :class:`Fault` entries with drop-on-overflow.

    The lifetime counters satisfy the conservation identity UVMSan checks
    on every operation::

        total_pushed + total_injected ==
            total_fetched + total_flush_dropped
            + total_injector_dropped + len(buffer)

    Hardware overflow drops never enter the buffer, so they appear in no
    term.  The two injection terms exist only under chaos testing
    (:mod:`repro.inject`): ``total_injector_dropped`` counts arrivals the
    injector discarded as if the buffer were full (they *are* counted in
    ``total_pushed`` — the GMMU wrote them, the injected storm ate them),
    and ``total_injected`` counts spurious duplicate entries the injector
    appended that no GMMU write produced.
    """

    __slots__ = (
        "capacity",
        "_entries",
        "total_pushed",
        "total_fetched",
        "total_overflow_dropped",
        "total_flush_dropped",
        "total_injected",
        "total_injector_dropped",
        "_san",
        "_inj",
    )

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._entries: Deque[Fault] = deque()
        self.total_pushed = 0
        self.total_fetched = 0
        self.total_overflow_dropped = 0
        self.total_flush_dropped = 0
        self.total_injected = 0
        self.total_injector_dropped = 0
        #: Attached UVMSan checker, or None (the common, zero-cost case).
        self._san = None  # snapshot: skip
        #: Attached fault injector, or None (the common, zero-cost case).
        self._inj = None  # snapshot: skip

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def full(self) -> bool:
        return len(self._entries) >= self.capacity

    def attach_sanitizer(self, sanitizer) -> None:
        """Check occupancy/conservation invariants after every operation."""
        self._san = sanitizer

    def attach_injector(self, injector) -> None:
        """Enable the ``fault_buffer.*`` injection sites on this buffer."""
        self._inj = injector

    def push(self, fault: Fault) -> bool:
        """Append a fault; False (dropped) when the buffer is full."""
        if len(self._entries) >= self.capacity:
            self.total_overflow_dropped += 1
            return False
        inj = self._inj
        if inj is not None and inj.fire("fault_buffer.overflow"):
            # Forced overflow storm: the GMMU wrote the fault but the
            # (injected) storm dropped it before the driver could see it.
            # The caller observes exactly a hardware drop: the access
            # re-demands after the next replay.
            self.total_pushed += 1
            self.total_injector_dropped += 1
            if self._san is not None:
                self._san.on_fault_buffer(self)
            return False
        self._entries.append(fault)
        self.total_pushed += 1
        if inj is not None and not self.full and inj.fire("fault_buffer.duplicate"):
            # Spurious duplicate entry (§4.2's wakeup duplicates, forced):
            # same page/warp, written twice.
            self._entries.append(
                Fault(
                    fault.page,
                    fault.access,
                    fault.sm_id,
                    fault.utlb_id,
                    fault.warp_uid,
                    fault.timestamp,
                )
            )
            self.total_injected += 1
        if self._san is not None:
            self._san.on_fault_buffer(self)
        return True

    def fetch(self, max_n: int) -> List[Fault]:
        """Driver-side read of up to ``max_n`` oldest entries (consumed)."""
        n = min(max_n, len(self._entries))
        entries = self._entries
        fetched = [entries.popleft() for _ in range(n)]
        self.total_fetched += n
        if self._san is not None:
            self._san.on_fault_buffer(self)
        return fetched

    def flush(self) -> List[Fault]:
        """Drop every remaining entry (pre-replay flush); returns them so the
        engine can re-demand non-prefetch accesses."""
        dropped = list(self._entries)
        self._entries.clear()
        self.total_flush_dropped += len(dropped)
        if self._san is not None:
            self._san.on_fault_buffer(self)
        return dropped

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"FaultBuffer({len(self._entries)}/{self.capacity})"
