"""GPU memory management unit: fault routing and host interrupt.

The GMMU receives misses from the µTLBs, writes the fault information into
the GPU fault buffer, and sends a hardware interrupt over the interconnect to
alert the host UVM driver (paper §2.1-2.2).  Batching lets the driver ignore
most interrupts, so the model only tracks a level-triggered pending flag.
"""

from __future__ import annotations

from typing import Optional

from .fault import AccessType, Fault
from .fault_buffer import FaultBuffer


class Gmmu:
    """Routes faults into the buffer and latches the host interrupt."""

    __slots__ = ("buffer", "sms_per_utlb", "interrupt_pending", "first_arrival")

    def __init__(self, buffer: FaultBuffer, sms_per_utlb: int) -> None:
        self.buffer = buffer
        self.sms_per_utlb = sms_per_utlb
        self.interrupt_pending = False
        #: Arrival time of the oldest un-fetched fault (drives wake latency).
        self.first_arrival: Optional[float] = None

    def deliver(
        self,
        page: int,
        access: AccessType,
        sm_id: int,
        warp_uid: int,
        timestamp: float,
    ) -> Optional[Fault]:
        """Write one fault into the buffer; None if hardware dropped it."""
        fault = Fault(
            page, access, sm_id, sm_id // self.sms_per_utlb, warp_uid, timestamp
        )
        if not self.buffer.push(fault):
            return None
        if not self.interrupt_pending:
            self.interrupt_pending = True
            self.first_arrival = timestamp
        return fault

    def acknowledge(self) -> None:
        """Host acknowledged the interrupt (fault fetch started)."""
        self.interrupt_pending = False
        self.first_arrival = None
