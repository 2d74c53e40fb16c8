"""Tiled GEMM: the paper's cuBLAS sgemm/dgemm workload.

``C = A · B`` with row-major n×n matrices, computed by one program per C
tile.  Each program iterates the k dimension: phase ``k`` reads the A row
panel ``A[iT:(i+1)T, kT:(k+1)T]`` and the B panel ``B[kT:(k+1)T, jT:(j+1)T]``
and accumulates; the final phase writes the C tile.

This reproduces the GEMM traits the paper leans on:

* panel *reuse*: every tile in C-tile-row ``i`` reads the same A panels, and
  every tile-column ``j`` the same B panels — concurrent blocks on different
  SMs fault the same pages (cross-µTLB duplicates, §4.2), and under
  oversubscription the reuse turns into eviction-driven refaults (Fig 12);
* clustered page footprints: a panel's rows are page-sparse across the
  matrix but VABlock-clustered, giving sgemm's ~7 VABlocks/batch (Table 3)
  and its "phases" of batching behaviour over time (Fig 8);
* a moderate-size working set swept repeatedly — the paper's default
  subject for the batch-size (Fig 9), transfer-fraction (Fig 7), and
  prefetching (Fig 14) experiments.
"""

from __future__ import annotations

from typing import List

from ..api import UvmSystem
from ..gpu.warp import KernelLaunch, Phase, WarpProgram
from .base import Workload, pages_of_byte_range


class Gemm(Workload):
    """Tiled GEMM with configurable element size (4 = sgemm, 8 = dgemm)."""

    name = "gemm"

    def __init__(
        self,
        n: int = 1536,
        tile: int = 256,
        elem_bytes: int = 4,
        host_init: bool = True,
        flops_per_usec: float = 0.2e6,
        pages_per_burst: int = 48,
    ):
        if n % tile:
            raise ValueError("tile must divide n")
        self.n = n
        self.tile = tile
        self.elem_bytes = elem_bytes
        self.host_init = host_init
        #: Effective per-block GEMM throughput (one SM's share, ~0.2 GFLOP/ms):
        #: a 256-cubed k-phase computes for ~170 us, desynchronizing blocks'
        #: fault rounds as on real hardware.
        self.flops_per_usec = flops_per_usec
        #: A k-phase's panel loads issue in bursts of this many pages,
        #: interleaved with the accumulating FMAs (double-buffered tiles):
        #: each block's instantaneous fault demand stays modest, which is
        #: why sgemm's per-SM batch contribution sits far below the
        #: synthetic ceiling (Table 2: 0.85 vs 3.06).
        self.pages_per_burst = pages_per_burst

    def required_bytes(self) -> int:
        return 3 * self.n * self.n * self.elem_bytes

    # ------------------------------------------------------------- helpers

    def _panel_pages(self, alloc, row0: int, nrows: int, col0: int, ncols: int) -> List[int]:
        """Pages of the row-major submatrix rows [row0, row0+nrows) ×
        cols [col0, col0+ncols)."""
        es = self.elem_bytes
        row_bytes = self.n * es
        pages: List[int] = []
        for r in range(row0, row0 + nrows):
            b0 = r * row_bytes + col0 * es
            b1 = b0 + ncols * es
            pages.extend(pages_of_byte_range(alloc, b0, b1))
        return pages

    # --------------------------------------------------------------- steps

    def steps(self, system: UvmSystem) -> List:
        nbytes = self.n * self.n * self.elem_bytes
        a = system.managed_alloc(nbytes, "A")
        b = system.managed_alloc(nbytes, "B")
        c = system.managed_alloc(nbytes, "C")
        t = self.tile
        ntiles = self.n // t
        phase_flops = 2.0 * t * t * t
        compute = phase_flops / self.flops_per_usec

        # Every A and B panel is built once and shared by all the tiles
        # that read it (each C panel has one writer and is built in place).
        a_panels = [
            [self._panel_pages(a, i * t, t, k * t, t) for k in range(ntiles)]
            for i in range(ntiles)
        ]
        b_panels = [
            [self._panel_pages(b, k * t, t, j * t, t) for j in range(ntiles)]
            for k in range(ntiles)
        ]
        burst = max(1, self.pages_per_burst)
        programs = []
        for i in range(ntiles):
            for j in range(ntiles):
                # Blocks progress at different effective rates (cache hits,
                # scheduling), drifting apart in k: concurrent blocks then
                # work on *different* panels, spreading each batch's faults
                # over several VABlocks (Table 3: ~7 blocks/batch for sgemm).
                drift = 0.6 + 0.8 * ((i * ntiles + j) * 5 % 9) / 8.0
                phases = []
                for k in range(ntiles):
                    reads = a_panels[i][k] + b_panels[k][j]
                    # Panel loads stream in bursts interleaved with the
                    # accumulation FMAs (double buffering).
                    nbursts = max(1, (len(reads) + burst - 1) // burst)
                    per_burst_compute = compute * drift / nbursts
                    for off in range(0, len(reads), burst):
                        phases.append(
                            Phase.of(
                                reads[off : off + burst],
                                compute_usec=per_burst_compute,
                            )
                        )
                writes = self._panel_pages(c, i * t, t, j * t, t)
                for off in range(0, len(writes), burst):
                    phases.append(
                        Phase.of(writes=writes[off : off + burst], compute_usec=0.5)
                    )
                programs.append(WarpProgram(phases, label=f"tile({i},{j})"))
        kernel = KernelLaunch(self.name, programs)
        steps: List = []
        if self.host_init:
            steps.append(lambda s: s.host_touch(a))
            steps.append(lambda s: s.host_touch(b))
        steps.append(kernel)
        return steps


class Sgemm(Gemm):
    """Single-precision GEMM (cuBLAS sgemm)."""

    name = "sgemm"

    def __init__(self, n: int = 1536, tile: int = 256, **kwargs):
        super().__init__(n=n, tile=tile, elem_bytes=4, **kwargs)


class Dgemm(Gemm):
    """Double-precision GEMM (the Fig 15 dgemm oversubscription subject)."""

    name = "dgemm"

    def __init__(self, n: int = 1536, tile: int = 256, **kwargs):
        super().__init__(n=n, tile=tile, elem_bytes=8, **kwargs)
