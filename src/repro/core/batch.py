"""Fault-batch assembly and duplicate classification.

The driver "groups outstanding faults into batches in the host-side cache"
(§2.2) and classifies duplicate faults into two types (§4.2):

* **type 1** — faults to the same address from the *same* µTLB (spatial
  locality within a warp/block, or spurious SM wakeups);
* **type 2** — faults to the same address from *different* µTLBs (data
  sharing among blocks on different SMs).

Both are counted here per batch; unique faults are grouped by VABlock since
"the driver processes all batch faults within a single VABlock together"
(§2.2), preserving first-fault order within each block.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Set

import numpy as np

from ..gpu.fault import AccessType, Fault
from ..units import vablock_of_page


@dataclass
class BlockWork:
    """Unique faulted pages of one VABlock within a batch."""

    block_id: int
    #: Unique faulted pages in first-arrival order.
    pages: List[int] = field(default_factory=list)
    #: Pages with at least one WRITE fault (take GPU write ownership).
    write_pages: Set[int] = field(default_factory=set)
    #: Pages demanded only by PREFETCH instructions.
    prefetch_only_pages: Set[int] = field(default_factory=set)
    #: Raw fault count attributed to this block (including duplicates).
    raw_faults: int = 0
    #: True for hint-driven bulk migrations (cudaMemPrefetchAsync): no
    #: per-fault servicing cost, no reactive prefetch expansion.
    hinted: bool = False


@dataclass
class AssembledBatch:
    """A preprocessed fault batch ready for servicing."""

    #: Raw faults in arrival order, as fetched from the buffer.
    faults: List[Fault]
    #: Per-VABlock work items, in first-fault order.
    blocks: List[BlockWork]
    num_unique: int = 0
    dup_same_utlb: int = 0
    dup_cross_utlb: int = 0
    #: Faults per originating SM (length = num_sms), for Table 2.
    sm_fault_counts: np.ndarray = None

    @property
    def num_raw(self) -> int:
        return len(self.faults)

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    @property
    def arrival_window(self) -> float:
        """Time between first and last fault arrival in the batch (Fig 4)."""
        if not self.faults:
            return 0.0
        return self.faults[-1].timestamp - self.faults[0].timestamp


def assemble_batch(faults: Sequence[Fault], num_sms: int) -> AssembledBatch:
    """Preprocess fetched faults: dedup, classify, group by VABlock.

    Duplicate semantics follow §4.2: the first fault to a page is unique;
    later faults to the same page are type 1 when some earlier fault to that
    page came from the same µTLB, else type 2.  A page's access type is the
    strongest seen (WRITE > READ > PREFETCH) — a write fault anywhere makes
    the page a write target.
    """
    batch = AssembledBatch(faults=list(faults), blocks=[])
    sm_counts = np.zeros(num_sms, dtype=np.int32)
    block_index: Dict[int, BlockWork] = {}
    seen_utlbs: Dict[int, Set[int]] = {}
    page_demand: Dict[int, AccessType] = {}

    for fault in faults:
        sm_counts[fault.sm_id] += 1
        page = fault.page
        block_id = vablock_of_page(page)
        work = block_index.get(block_id)
        if work is None:
            work = BlockWork(block_id=block_id)
            block_index[block_id] = work
            batch.blocks.append(work)
        work.raw_faults += 1

        utlbs = seen_utlbs.get(page)
        if utlbs is None:
            # First fault for this page in the batch: unique.
            seen_utlbs[page] = {fault.utlb_id}
            page_demand[page] = fault.access
            batch.num_unique += 1
            work.pages.append(page)
            if fault.access == AccessType.WRITE:
                work.write_pages.add(page)
            elif fault.access == AccessType.PREFETCH:
                work.prefetch_only_pages.add(page)
        else:
            if fault.utlb_id in utlbs:
                batch.dup_same_utlb += 1
            else:
                batch.dup_cross_utlb += 1
                utlbs.add(fault.utlb_id)
            # Upgrade access strength for the page.
            if fault.access == AccessType.WRITE:
                work.write_pages.add(page)
                work.prefetch_only_pages.discard(page)
            elif fault.access == AccessType.READ:
                work.prefetch_only_pages.discard(page)

    batch.sm_fault_counts = sm_counts
    return batch
