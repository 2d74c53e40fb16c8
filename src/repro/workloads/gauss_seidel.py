"""Red-black Gauss-Seidel stencil sweeps (paper Table 1: HPCG/AMR kernels).

A 2-D five-point Gauss-Seidel smoother: each sweep updates every grid row
using its vertical neighbours.  Rows are page-contiguous, so the faulting
frontier is a narrow band of rows moving down the grid — the highest
per-VABlock locality of the suite (Table 3: 2.31 blocks/batch, 22.4
faults/block).

Repeated sweeps re-touch the whole grid, which under oversubscription turns
into the allocation-ordered ("LRU = earliest allocated") eviction bands and
the eviction→prefetch interplay of Fig 16: freshly re-paged VABlocks fault
densely and re-trigger prefetching.
"""

from __future__ import annotations

from typing import List

from ..api import UvmSystem
from ..gpu.warp import KernelLaunch, Phase, WarpProgram
from ..units import PAGE_SIZE
from .base import Workload


class GaussSeidel(Workload):
    """Red-black Gauss-Seidel sweeps over an n×n float64 grid."""

    name = "gauss-seidel"

    def __init__(
        self,
        n: int = 1024,
        sweeps: int = 2,
        num_programs: int = 8,
        band_rows: int = 32,
        host_init: bool = True,
        compute_usec_per_row: float = 2.0,
    ):
        row_bytes = 8 * n
        if row_bytes % PAGE_SIZE:
            raise ValueError("n must give page-aligned float64 rows (n % 512 == 0)")
        if band_rows % num_programs:
            raise ValueError("band_rows must divide evenly among programs")
        self.n = n
        self.sweeps = sweeps
        self.num_programs = num_programs
        self.band_rows = band_rows
        self.host_init = host_init
        self.compute_usec_per_row = compute_usec_per_row

    @property
    def pages_per_row(self) -> int:
        return (8 * self.n) // PAGE_SIZE

    def required_bytes(self) -> int:
        return 2 * 8 * self.n * self.n

    def _row_pages(self, alloc, row: int) -> List[int]:
        pr = self.pages_per_row
        return list(alloc.pages(row * pr, (row + 1) * pr))

    def steps(self, system: UvmSystem) -> List:
        nbytes = 8 * self.n * self.n
        u = system.managed_alloc(nbytes, "u")  # solution grid (read+write)
        f = system.managed_alloc(nbytes, "f")  # right-hand side (read)
        n = self.n
        rows_per_prog = self.band_rows // self.num_programs

        programs = [[] for _ in range(self.num_programs)]
        for _sweep in range(self.sweeps):
            # Two half-sweeps (red, black); at page granularity both touch
            # the same row bands, so each colours' phases look alike.
            for _colour in range(2):
                for band0 in range(0, n, self.band_rows):
                    for k in range(self.num_programs):
                        lo = band0 + k * rows_per_prog
                        hi = min(lo + rows_per_prog, n)
                        if lo >= hi:
                            continue
                        reads: List[int] = []
                        writes: List[int] = []
                        for row in range(lo, hi):
                            reads.extend(self._row_pages(f, row))
                            if row > 0:
                                reads.extend(self._row_pages(u, row - 1))
                            if row + 1 < n:
                                reads.extend(self._row_pages(u, row + 1))
                            writes.extend(self._row_pages(u, row))
                        programs[k].append(
                            Phase.of(
                                reads,
                                writes,
                                compute_usec=self.compute_usec_per_row * (hi - lo),
                            )
                        )

        kernel = KernelLaunch(
            self.name,
            [WarpProgram(ph, label=f"gs{k}") for k, ph in enumerate(programs) if ph],
        )
        steps: List = []
        if self.host_init:
            steps.append(lambda s: s.host_touch(u))
            steps.append(lambda s: s.host_touch(f))
        steps.append(kernel)
        return steps
