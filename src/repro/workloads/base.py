"""Workload abstraction and shared access-pattern builders.

A :class:`Workload` owns its problem parameters and knows how to set itself
up on a :class:`~repro.api.UvmSystem`: allocate managed memory, run host
initialization phases, and emit :class:`~repro.gpu.warp.KernelLaunch` steps.
``run`` executes the whole sequence and returns the system's
:class:`~repro.api.RunResult`.

The helpers at the bottom capture the two faulting concurrency archetypes
the paper's Table 3 distinguishes:

* :func:`lockstep_programs` — all programs sweep one moving window together
  (grid-stride kernels like BabelStream): the faulting frontier is narrow,
  so batches touch *few* VABlocks with *many* faults each.
* :func:`independent_programs` — each program streams its own contiguous
  region (one per SM): batches mix ~every SM's region, touching *many*
  VABlocks with few faults each.
"""

from __future__ import annotations

import abc
from typing import List, Optional, Sequence, Tuple

from ..api import ManagedAllocation, RunResult, UvmSystem
from ..gpu.warp import KernelLaunch, Phase, WarpProgram
from ..units import PAGE_SIZE


class Workload(abc.ABC):
    """Base class for paper workload models."""

    #: Short name used in logs, tables, and experiment ids.
    name: str = "workload"

    @abc.abstractmethod
    def steps(self, system: UvmSystem) -> List:
        """Allocate on ``system`` and return the run steps (kernels and
        host-phase callables) in execution order."""

    def run(self, system: UvmSystem) -> RunResult:
        """Set up and execute the workload on ``system``."""
        return system.run(self.steps(system), name=self.name)

    def required_bytes(self) -> int:
        """Total managed bytes the workload will allocate (best effort)."""
        return 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}(name={self.name!r})"


def pages_of_byte_range(alloc: ManagedAllocation, byte_start: int, byte_stop: int) -> List[int]:
    """Global page ids covering bytes ``[byte_start, byte_stop)`` of ``alloc``.

    Partially covered pages count, and the range is bounds-checked once.

    >>> alloc = ManagedAllocation("x", start_page=512, num_pages=4)
    >>> pages_of_byte_range(alloc, 4000, 4200)  # straddles a page boundary
    [512, 513]
    >>> pages_of_byte_range(alloc, 100, 100)
    []
    """
    if byte_stop <= byte_start:
        return []
    first = byte_start // PAGE_SIZE
    last = (byte_stop - 1) // PAGE_SIZE
    return list(alloc.pages(first, last + 1))


def lockstep_programs(
    read_allocs: Sequence[ManagedAllocation],
    write_allocs: Sequence[ManagedAllocation],
    npages: int,
    num_programs: int,
    window_pages: int,
    compute_usec_per_page: float = 0.02,
    overlap_pages: int = 1,
) -> List[WarpProgram]:
    """Grid-stride sweep: every program advances through the same windows.

    Window ``s`` covers pages ``[s*window, (s+1)*window)``; program ``k``
    handles an equal slice of each window.  All programs fault within the
    same narrow frontier — matching stream/stencil kernels where threads
    sweep memory in lockstep (few VABlocks per batch, Table 3).

    ``overlap_pages`` extends each program's read slice into its neighbour's:
    a page straddling two thread chunks is faulted by both warps, the
    within-batch duplicate source that roughly halves stream's deduplicated
    batch sizes in Fig 8 (§4.2 type-1/2 duplicates).

    Known deviation: only ``npages // window_pages`` whole windows are
    swept, so the trailing ``npages % window_pages`` pages of every array
    are never touched, apart from the ``overlap_pages`` the last window
    reads past its end.  On ``stream-oversub``'s 16 MiB triad that leaves
    16 pages of the written array and 15 of each read array untouched.
    Fixing it moves the ``stream`` timeline and its recorded anchors, so it
    waits for a change that re-records them.
    """
    if window_pages % num_programs:
        raise ValueError("window_pages must be a multiple of num_programs")
    per = window_pages // num_programs
    num_windows = npages // window_pages
    programs = []
    for k in range(num_programs):
        phases = []
        for s in range(num_windows):
            base = s * window_pages + k * per
            stop = min(base + per + overlap_pages, npages)
            reads: List[int] = []
            for alloc in read_allocs:
                reads.extend(alloc.pages(base, stop))
            writes: List[int] = []
            for alloc in write_allocs:
                writes.extend(alloc.pages(base, base + per))
            phases.append(
                Phase.of(reads, writes, compute_usec=compute_usec_per_page * per)
            )
        programs.append(WarpProgram(phases, label=f"stride{k}"))
    return programs


def independent_programs(
    read_allocs: Sequence[ManagedAllocation],
    write_allocs: Sequence[ManagedAllocation],
    npages: int,
    num_programs: int,
    pages_per_phase: int,
    compute_usec_per_page: float = 0.02,
) -> List[WarpProgram]:
    """Region-per-program streaming: program ``k`` owns the contiguous page
    range ``[k*npages/num_programs, ...)`` and walks it phase by phase.

    With one program per SM the fault population of every batch mixes all
    SMs' (distant) regions — many VABlocks per batch (Table 3 "Regular").
    """
    per_prog = npages // num_programs
    if per_prog == 0:
        raise ValueError("npages must be >= num_programs")
    programs = []
    for k in range(num_programs):
        start = k * per_prog
        stop = npages if k == num_programs - 1 else start + per_prog
        phases = []
        pos = start
        while pos < stop:
            end = min(pos + pages_per_phase, stop)
            reads: List[int] = []
            for alloc in read_allocs:
                reads.extend(alloc.pages(pos, end))
            writes: List[int] = []
            for alloc in write_allocs:
                writes.extend(alloc.pages(pos, end))
            phases.append(
                Phase.of(reads, writes, compute_usec=compute_usec_per_page * (end - pos))
            )
            pos = end
        programs.append(WarpProgram(phases, label=f"region{k}"))
    return programs
