"""Synthetic access patterns: the paper's "Regular" and "Random" rows.

Tables 2 and 3 include two synthetic benchmarks that bracket the locality
spectrum:

* **Regular** — every SM streams its own contiguous region; each batch mixes
  faults from ~all SMs' distant regions → many VABlocks per batch, a
  handful of faults per block, per-SM fault counts at the
  ``batch_size/num_sms`` ceiling (~3.2).
* **Random** — uniformly random page accesses with no locality → the most
  VABlocks per batch, ~1 fault per block, and per-SM counts at the same
  ceiling.
"""

from __future__ import annotations

from typing import List

from ..api import UvmSystem
from ..gpu.warp import KernelLaunch, Phase, WarpProgram
from ..sim.rng import spawn_rng
from ..units import PAGE_SIZE
from .base import Workload, independent_programs


class RegularStream(Workload):
    """Per-SM independent streaming read+write over a large array."""

    name = "regular"

    def __init__(
        self,
        nbytes: int = 32 << 20,
        num_programs: int = 80,
        pages_per_phase: int = 16,
        host_init: bool = True,
        write_output: bool = False,
    ):
        self.nbytes = nbytes
        self.num_programs = num_programs
        self.pages_per_phase = pages_per_phase
        self.host_init = host_init
        #: Also stream a same-size output array (doubles the footprint).
        self.write_output = write_output

    def required_bytes(self) -> int:
        return (2 if self.write_output else 1) * self.nbytes

    def steps(self, system: UvmSystem) -> List:
        npages = self.nbytes // PAGE_SIZE
        src = system.managed_alloc(self.nbytes, "src")
        writes = []
        if self.write_output:
            writes = [system.managed_alloc(self.nbytes, "dst")]
        programs = independent_programs(
            [src], writes, npages, self.num_programs, self.pages_per_phase
        )
        kernel = KernelLaunch(self.name, programs)
        steps: List = []
        if self.host_init:
            steps.append(lambda s: s.host_touch(src))
        steps.append(kernel)
        return steps


class RandomAccess(Workload):
    """Uniform random page reads: no spatial locality at any granularity."""

    name = "random"

    def __init__(
        self,
        nbytes: int = 32 << 20,
        num_programs: int = 80,
        accesses_per_program: int = 256,
        pages_per_phase: int = 8,
        seed: int = 1234,
        host_init: bool = True,
    ):
        self.nbytes = nbytes
        self.num_programs = num_programs
        self.accesses_per_program = accesses_per_program
        self.pages_per_phase = pages_per_phase
        self.seed = seed
        self.host_init = host_init

    def required_bytes(self) -> int:
        return self.nbytes

    def steps(self, system: UvmSystem) -> List:
        npages = self.nbytes // PAGE_SIZE
        data = system.managed_alloc(self.nbytes, "data")
        rng = spawn_rng(self.seed, "random-access")
        programs = []
        per = self.pages_per_phase
        for k in range(self.num_programs):
            draws = rng.integers(0, npages, size=self.accesses_per_program)
            # Draws lie in [0, npages), so offsetting them stays in bounds.
            pages = (draws + data.start_page).tolist()
            phases = [
                Phase.of(pages[i : i + per], compute_usec=0.1)
                for i in range(0, len(pages), per)
            ]
            programs.append(WarpProgram(phases, label=f"rand{k}"))
        kernel = KernelLaunch(self.name, programs)
        steps: List = []
        if self.host_init:
            steps.append(lambda s: s.host_touch(data))
        steps.append(kernel)
        return steps
