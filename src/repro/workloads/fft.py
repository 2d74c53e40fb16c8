"""cuFFT-style radix-2 transform passes (paper Table 1: "cuFFT").

A large 1-D complex transform decomposes into log2(N) butterfly passes; pass
``p`` pairs element ``i`` with ``i + 2^p``.  At page granularity the early
passes (stride < one page) touch each page once per pass, while later passes
pair pages across exponentially-growing distances — scattering each batch
over many VABlocks (Table 3: ~25 blocks/batch, ~3 faults/block) with a
moderate twiddle-table hot set.

All programs advance through pair windows in lockstep, like cuFFT's
grid-stride butterfly kernels.
"""

from __future__ import annotations

from typing import List

from ..api import UvmSystem
from ..gpu.warp import KernelLaunch, Phase, WarpProgram
from ..units import PAGE_SIZE
from .base import Workload


class CuFft(Workload):
    """Radix-2 out-of-place-free (in-place) FFT access pattern."""

    name = "cufft"

    def __init__(
        self,
        nbytes: int = 32 << 20,
        num_programs: int = 64,
        pairs_per_phase: int = 4,
        host_init: bool = True,
        compute_usec_per_page: float = 2.0,
    ):
        npages = nbytes // PAGE_SIZE
        if npages & (npages - 1):
            raise ValueError("nbytes must give a power-of-two page count")
        self.nbytes = nbytes
        self.num_programs = num_programs
        self.pairs_per_phase = pairs_per_phase
        self.host_init = host_init
        self.compute_usec_per_page = compute_usec_per_page

    def required_bytes(self) -> int:
        return self.nbytes + (self.nbytes // 64)

    def steps(self, system: UvmSystem) -> List:
        npages = self.nbytes // PAGE_SIZE
        data = system.managed_alloc(self.nbytes, "signal")
        twiddle = system.managed_alloc(max(PAGE_SIZE, self.nbytes // 64), "twiddle")
        tw_pages = twiddle.num_pages

        import math

        num_passes = int(math.log2(npages))
        programs = [[] for _ in range(self.num_programs)]

        # Bit-reversal permutation: each program owns a contiguous region of
        # the signal (cuFFT batches independent sub-transforms), reading it
        # sequentially and scattering writes to page bitrev(i) — spraying
        # each batch across many VABlocks (Table 3's ~25 blocks/batch).
        bits = num_passes
        per = self.pairs_per_phase
        region = npages // self.num_programs
        for step in range(0, max(1, region), per):
            for k in range(self.num_programs):
                lo = k * region + step
                hi = min(lo + per, (k + 1) * region, npages)
                if lo >= hi:
                    continue
                reads = list(data.pages(lo, hi))
                writes = [
                    data.page(int(f"{i:0{bits}b}"[::-1], 2)) for i in range(lo, hi)
                ]
                programs[k].append(
                    Phase.of(
                        reads,
                        writes,
                        compute_usec=self.compute_usec_per_page * (hi - lo),
                    )
                )

        # Pass 0: sub-page strides — every page read-modify-written once.
        window = self.num_programs * self.pairs_per_phase
        for base in range(0, npages, window):
            for k in range(self.num_programs):
                lo = base + k * self.pairs_per_phase
                hi = min(lo + self.pairs_per_phase, npages)
                if lo >= hi:
                    continue
                pages = list(data.pages(lo, hi))
                tw = [twiddle.page(base // window % tw_pages)]
                programs[k].append(
                    Phase.of(
                        reads=pages + tw,
                        writes=pages,
                        compute_usec=self.compute_usec_per_page * len(pages),
                    )
                )

        # Page-strided passes: stride 2^p pages.  cuFFT's butterfly kernels
        # process independent sub-transforms concurrently, so pair work is
        # spread across distant regions of the signal — each batch touches
        # many VABlocks (Table 3's ~25 blocks/batch for cufft).
        num_regions = 12
        for p in range(num_passes):
            stride = 1 << p
            seq = [i for i in range(npages) if not (i & stride)]
            rlen = max(1, len(seq) // num_regions)
            slices = [seq[r * rlen : (r + 1) * rlen] for r in range(num_regions)]
            slices.append(seq[num_regions * rlen :])
            pairs = []
            for j in range(max(len(sl) for sl in slices)):
                for sl in slices:
                    if j < len(sl):
                        pairs.append(sl[j])
            per = self.pairs_per_phase
            idx = 0
            while idx < len(pairs):
                for k in range(self.num_programs):
                    chunk = pairs[idx : idx + per]
                    idx += per
                    if not chunk:
                        continue
                    pages = []
                    for i in chunk:
                        pages.append(data.page(i))
                        pages.append(data.page(i + stride))
                    tw = [twiddle.page((p * 7 + idx // per) % tw_pages)]
                    programs[k].append(
                        Phase.of(
                            reads=pages + tw,
                            writes=pages,
                            compute_usec=self.compute_usec_per_page * len(pages),
                        )
                    )

        kernel = KernelLaunch(
            self.name,
            [WarpProgram(ph, label=f"fft{k}") for k, ph in enumerate(programs) if ph],
        )
        steps: List = []
        if self.host_init:
            steps.append(lambda s: s.host_touch(data))
            steps.append(lambda s: s.host_touch(twiddle))
        steps.append(kernel)
        return steps
