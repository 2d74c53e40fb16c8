"""Targeted microbenchmarks from paper §3.2 (Listings 1-2, Figs 3-5).

Three kernels that expose the GPU's fault-generation machinery:

* :class:`VecAddPageStride` — Listing 1 verbatim: 32 threads, each
  separating its accesses by one page, three page-strided additions.
  Produces the 56-fault first batch (µTLB cap) and the read-before-write
  scoreboard serialization of Figs 3-4.
* :class:`CoalescedVecAdd` — the "coalescing version" the paper notes
  "implies that each faulting warp (or block) requires at least two full
  fault batches to complete its work": lanes share pages, so reads form one
  batch and the dependent writes another.
* :class:`PrefetchVectorKernel` — the PTX ``prefetch.global.L2`` kernel of
  Fig 5: a single warp prefetches whole vectors upfront, bypassing the
  scoreboard, the µTLB cap, and the SM throttle, filling an entire batch.
"""

from __future__ import annotations

from typing import List

from ..api import UvmSystem
from ..gpu.warp import KernelLaunch, Phase, WarpProgram
from ..units import PAGE_SIZE
from .base import Workload

#: Listing 1: #define FPSIZE 512  (4096 bytes / sizeof(float)) — one page.
FPSIZE_BYTES = PAGE_SIZE
#: Listing 1: #define TSIZE 32 — one warp.
TSIZE = 32


class VecAddPageStride(Workload):
    """Listing 1: ``c[p] = a[p] + b[p]`` with one page per thread, 3 rounds."""

    name = "vecadd-pagestride"

    def __init__(self, tsize: int = TSIZE, rounds: int = 3, compute_usec: float = 1.0):
        self.tsize = tsize
        self.rounds = rounds
        self.compute_usec = compute_usec

    def required_bytes(self) -> int:
        return 3 * self.tsize * self.rounds * PAGE_SIZE

    def steps(self, system: UvmSystem) -> List:
        npages = self.tsize * self.rounds
        a = system.managed_alloc(npages * PAGE_SIZE, "a")
        b = system.managed_alloc(npages * PAGE_SIZE, "b")
        c = system.managed_alloc(npages * PAGE_SIZE, "c")
        phases = []
        for j in range(self.rounds):
            # SASS order (Listing 2): LDG a for all lanes, LDG b, FADD
            # scoreboard stall, then STG c.
            lo = j * self.tsize
            hi = lo + self.tsize
            reads = list(a.pages(lo, hi)) + list(b.pages(lo, hi))
            writes = list(c.pages(lo, hi))
            phases.append(Phase.of(reads, writes, compute_usec=self.compute_usec))
        kernel = KernelLaunch(self.name, [WarpProgram(phases, label="warp0")])
        return [
            lambda s: s.host_touch(a),
            lambda s: s.host_touch(b),
            kernel,
        ]


class CoalescedVecAdd(Workload):
    """Coalesced vector add: many warps, lanes within a warp share pages.

    Each warp covers ``pages_per_warp`` consecutive pages of each vector;
    reads must complete before the dependent writes issue, so every warp
    needs at least two fault rounds (paper §3.2).
    """

    name = "vecadd-coalesced"

    def __init__(self, num_warps: int = 8, pages_per_warp: int = 4, compute_usec: float = 0.5):
        self.num_warps = num_warps
        self.pages_per_warp = pages_per_warp
        self.compute_usec = compute_usec

    def required_bytes(self) -> int:
        return 3 * self.num_warps * self.pages_per_warp * PAGE_SIZE

    def steps(self, system: UvmSystem) -> List:
        npages = self.num_warps * self.pages_per_warp
        a = system.managed_alloc(npages * PAGE_SIZE, "a")
        b = system.managed_alloc(npages * PAGE_SIZE, "b")
        c = system.managed_alloc(npages * PAGE_SIZE, "c")
        programs = []
        for w in range(self.num_warps):
            lo = w * self.pages_per_warp
            hi = lo + self.pages_per_warp
            # Spatial locality within the warp: lanes repeat pages — the
            # paper's type-1 duplicate source (§4.2).  Two lanes per page.
            reads = [p for i in range(lo, hi) for p in (a.page(i), a.page(i))]
            reads += [p for i in range(lo, hi) for p in (b.page(i), b.page(i))]
            writes = [c.page(i) for i in range(lo, hi)]
            programs.append(
                WarpProgram([Phase.of(reads, writes, compute_usec=self.compute_usec)])
            )
        kernel = KernelLaunch(self.name, programs)
        return [lambda s: s.host_touch(a), lambda s: s.host_touch(b), kernel]


class PrefetchVectorKernel(Workload):
    """Fig 5: one warp issues ``prefetch.global.L2`` for whole vectors.

    Prefetch faults escape every generation limit; only the driver's batch
    size cap bounds the batch, and overflowing faults are dropped
    (footnote 1 of the paper).
    """

    name = "prefetch-kernel"

    def __init__(self, pages_per_vector: int = 100, touch_after: bool = False):
        self.pages_per_vector = pages_per_vector
        #: Optionally read the vectors after prefetching (hits, no faults).
        self.touch_after = touch_after

    def required_bytes(self) -> int:
        return 3 * self.pages_per_vector * PAGE_SIZE

    def steps(self, system: UvmSystem) -> List:
        n = self.pages_per_vector
        a = system.managed_alloc(n * PAGE_SIZE, "a")
        b = system.managed_alloc(n * PAGE_SIZE, "b")
        c = system.managed_alloc(n * PAGE_SIZE, "c")
        prefetches = list(a.pages()) + list(b.pages()) + list(c.pages())
        phases = [Phase.of(prefetches=prefetches)]
        if self.touch_after:
            phases.append(
                Phase.of(
                    reads=list(a.pages()) + list(b.pages()),
                    writes=list(c.pages()),
                    compute_usec=1.0,
                )
            )
        kernel = KernelLaunch(self.name, [WarpProgram(phases, label="warp0")])
        return [lambda s: s.host_touch(a), lambda s: s.host_touch(b), kernel]
