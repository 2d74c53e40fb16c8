"""Warp execution model with register-scoreboard semantics.

The paper (§3.2, Listings 1-2) reverse-engineers three fault-generation
behaviours that this module encodes:

1. **Loads are non-blocking.**  A warp can issue one or more reads that fault
   without stalling — the exact behaviour of non-faulting CUDA accesses.
2. **The register scoreboard serializes dependent stores.**  The SASS of
   ``c[i] = a[i] + b[i]`` stalls at the ``FADD`` on the two load registers, so
   *no write can execute until its prerequisite reads are fulfilled*, even
   though the store address is known upfront.  A faulting warp therefore
   needs at least two full fault rounds per statement.
3. **Prefetch instructions escape both limits.**  ``prefetch.global.L2``
   does not use the scoreboard, so it bypasses the µTLB outstanding cap and
   the SM fault-rate throttle; a single warp can fill an entire 256-fault
   batch (Fig 5).  Dropped prefetch faults are never reissued (hints).

A workload is compiled into :class:`WarpProgram` s — ordered lists of
:class:`Phase` s, each a (reads, writes, prefetches) triple of page ids plus
a compute cost.  :class:`WarpState` executes a program against the evolving
GPU residency: within a phase all reads issue concurrently, writes wait for
the phase's reads, and the warp only advances to the next phase when the
current phase's pages are resident.

One ``WarpProgram`` models one *faulting context* (a warp, or a thread block
whose warps fault in lockstep); the paper's per-SM and per-µTLB statistics
only depend on that granularity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from .fault import AccessType

_STAGE_READS = 0
_STAGE_WRITES = 1


@dataclass(frozen=True)
class Phase:
    """One dependency-separated group of memory operations.

    ``reads`` may contain duplicate page ids: distinct lanes touching the
    same page issue distinct faults (the paper's type-1 duplicates, §4.2).
    """

    reads: Tuple[int, ...] = ()
    writes: Tuple[int, ...] = ()
    prefetches: Tuple[int, ...] = ()
    #: GPU compute time (µs) charged when the phase completes.
    compute_usec: float = 0.0

    @staticmethod
    def of(
        reads: Iterable[int] = (),
        writes: Iterable[int] = (),
        prefetches: Iterable[int] = (),
        compute_usec: float = 0.0,
    ) -> "Phase":
        return Phase(tuple(reads), tuple(writes), tuple(prefetches), compute_usec)

    @cached_property
    def pages(self) -> FrozenSet[int]:
        """All distinct pages the phase touches (excluding prefetch hints).

        Cached: ``Phase`` is frozen, so the set is computed once instead of
        being rebuilt on every property access in the engine's hot loops
        (``cached_property`` stores into the instance ``__dict__``, which
        bypasses the frozen ``__setattr__`` and stays out of field-based
        equality/hashing).
        """
        return frozenset(self.reads) | frozenset(self.writes)


@dataclass
class WarpProgram:
    """An ordered list of phases executed by one faulting context."""

    phases: Tuple[Phase, ...]
    #: Optional label for traces/debugging (e.g. ``"block(3,1)"``).
    label: str = ""

    def __post_init__(self) -> None:
        self.phases = tuple(self.phases)

    @property
    def total_accesses(self) -> int:
        return sum(len(p.reads) + len(p.writes) for p in self.phases)

    @cached_property
    def touched_pages(self) -> FrozenSet[int]:
        """Union of all phase footprints; cached — programs are immutable
        once built (``__post_init__`` freezes ``phases`` into a tuple)."""
        return frozenset().union(*(p.pages for p in self.phases))


@dataclass
class KernelLaunch:
    """A set of warp programs submitted to the device as one kernel."""

    name: str
    programs: List[WarpProgram]
    #: Maximum concurrently-active programs per SM (occupancy).  ``None``
    #: uses the device limit.
    occupancy: Optional[int] = None

    @property
    def total_accesses(self) -> int:
        return sum(p.total_accesses for p in self.programs)

    @cached_property
    def touched_pages(self) -> FrozenSet[int]:
        """Union of all program footprints; cached — launches are built once
        by the workload generators and never mutated afterwards."""
        return frozenset().union(*(p.touched_pages for p in self.programs))


@dataclass
class AdvanceResult:
    """Outcome of :meth:`WarpState.advance`."""

    #: Compute time accrued by phases completed during this advance.
    compute_usec: float = 0.0
    #: Pages the warp is now blocked on (engine registers waiters on these).
    new_waits: Set[int] = field(default_factory=set)
    #: Prefetch page occurrences emitted while advancing (issue immediately,
    #: bypassing all caps; never gate progress).
    prefetches: List[int] = field(default_factory=list)
    #: True when the program ran to completion.
    finished: bool = False
    #: Distinct resident pages the advance touched without faulting
    #: (in-memory hits).  Only collected when ``WarpState.track_hits`` is
    #: set — the real driver cannot see these (§5.4), but access-counter
    #: eviction policies can.
    hit_pages: Set[int] = field(default_factory=set)


class WarpState:
    """Runtime state of one :class:`WarpProgram` on an SM.

    The engine drives a warp through this protocol:

    * :meth:`advance` — run forward until blocked or finished; returns pages
      to wait on plus any prefetch demands.
    * :meth:`take_next` — pop the next fault occurrence to issue (the
      engine checks the SM throttle budget and µTLB capacity);
      :meth:`take_issuable` pops several at once.
    * :meth:`on_pages_resident` — notification from the driver; when it
      returns True the warp is unblocked and must be advanced again.
    * :meth:`requeue` — re-demand an occurrence whose fault was dropped by
      the replay flush (the µTLB reissues still-needed faults, §4.2).
    """

    __slots__ = (
        "program",
        "uid",
        "sm_id",
        "_phase_idx",
        "_stage",
        "_prefetch_emitted",
        "missing",
        "_unissued",
        "_unissued_head",
        "finished",
        "faults_issued",
        "ready_at",
        "track_hits",
        "_stage_satisfied",
    )

    def __init__(self, program: WarpProgram, uid: int, sm_id: int) -> None:
        self.program = program
        self.uid = uid
        self.sm_id = sm_id
        self._phase_idx = 0
        self._stage = _STAGE_READS
        self._prefetch_emitted = False
        #: Distinct pages of the current stage not yet GPU-resident.
        self.missing: Set[int] = set()
        #: Pending fault occurrences ``(page, access)`` awaiting issue.
        self._unissued: List[Tuple[int, AccessType]] = []
        self._unissued_head = 0
        self.finished = False
        #: Total faults this warp has issued (instrumentation).
        self.faults_issued = 0
        #: Simulated time before which this warp is busy computing completed
        #: phases and issues no new faults.  Compute between fault rounds is
        #: what desynchronizes SMs in real kernels: at any instant only a
        #: fraction of warps is fault-ready, which is why application batch
        #: sizes sit far below the synthetic ceiling in Table 2.
        self.ready_at = 0.0
        #: When True, :meth:`advance` collects in-memory hit pages (for
        #: access-counter eviction policies).  Off by default: hits are
        #: invisible to the real driver and collecting them costs time.
        self.track_hits = False
        #: Set when the blocked stage was fully satisfied by driver
        #: notifications: the stage's loads retired at the replay, so the
        #: next advance must NOT re-check residency (pages may have been
        #: evicted again since — re-checking would livelock a working set
        #: larger than device memory).
        self._stage_satisfied = False

    # ------------------------------------------------------------------ api

    @property
    def blocked(self) -> bool:
        """True while the current stage waits on non-resident pages."""
        return bool(self.missing)

    @property
    def has_issuable(self) -> bool:
        return self._unissued_head < len(self._unissued)

    def advance(self, resident: Set[int]) -> AdvanceResult:
        """Run the program forward until it blocks on a fault or finishes.

        ``resident`` is the set of GPU-resident page ids (the GPU page
        table's view).  Must only be called when :attr:`blocked` is False.
        """
        result = AdvanceResult()
        if self.finished:
            result.finished = True
            return result
        track_hits = self.track_hits
        phases = self.program.phases
        while self._phase_idx < len(phases):
            phase = phases[self._phase_idx]
            if self._stage == _STAGE_READS:
                if not self._prefetch_emitted and phase.prefetches:
                    result.prefetches.extend(phase.prefetches)
                    self._prefetch_emitted = True
                if self._stage_satisfied:
                    # The stage's loads retired at the replay that made its
                    # last page resident; never re-check (eviction may have
                    # already reclaimed the pages — consumption is final).
                    self._stage_satisfied = False
                else:
                    if track_hits:
                        result.hit_pages.update(p for p in phase.reads if p in resident)
                    if self._block_on(phase.reads, AccessType.READ, resident):
                        result.new_waits = set(self.missing)
                        return result
                self._stage = _STAGE_WRITES
            if self._stage == _STAGE_WRITES:
                if self._stage_satisfied:
                    self._stage_satisfied = False
                else:
                    if track_hits:
                        result.hit_pages.update(p for p in phase.writes if p in resident)
                    if self._block_on(phase.writes, AccessType.WRITE, resident):
                        result.new_waits = set(self.missing)
                        return result
                result.compute_usec += phase.compute_usec
                self._phase_idx += 1
                self._stage = _STAGE_READS
                self._prefetch_emitted = False
        self.finished = True
        result.finished = True
        return result

    def peek_page(self) -> Optional[int]:
        """Page of the next issuable occurrence (skipping satisfied ones),
        or None.

        Pure: issue state is only consumed by :meth:`take_issuable`.  An
        earlier version advanced ``_unissued_head`` past satisfied
        occurrences and reset the queue when it ran off the end — so a peek
        on a still-blocked warp could clear the queue out from under a
        concurrent :meth:`requeue` (a re-demanded occurrence landed in a
        freshly-reset list, or was skipped by the advanced head).  Peeking
        must never change which occurrences a later take/requeue sees.
        """
        unissued = self._unissued
        missing = self.missing
        for i in range(self._unissued_head, len(unissued)):
            page = unissued[i][0]
            if page in missing:
                return page
        return None

    def take_next(self) -> Optional[Tuple[int, AccessType]]:
        """Pop the next occurrence whose page is still missing, or None.

        The engine's per-fault primitive: one scan, no list.  The head moves
        past satisfied occurrences as it scans, which is safe because
        ``missing`` only shrinks within a stage: a skipped occurrence can
        never become issuable again, and :meth:`requeue` only appends pages
        that are still missing.  Unlike :meth:`take_issuable` it never
        resets or compacts the queue, so a re-demand always lands behind
        the head.
        """
        unissued = self._unissued
        missing = self.missing
        head = self._unissued_head
        n = len(unissued)
        while head < n:
            occ = unissued[head]
            head += 1
            if occ[0] in missing:
                self._unissued_head = head
                self.faults_issued += 1
                return occ
        self._unissued_head = head
        return None

    def take_issuable(self, max_n: int) -> List[Tuple[int, AccessType]]:
        """Pop up to ``max_n`` occurrences whose pages are still missing.

        Occurrences whose page became resident before they issued are
        silently skipped — after a replay they would simply hit in the µTLB.
        """
        taken: List[Tuple[int, AccessType]] = []
        unissued = self._unissued
        head = self._unissued_head
        missing = self.missing
        n = len(unissued)
        while head < n and len(taken) < max_n:
            occ = unissued[head]
            head += 1
            if occ[0] in missing:
                taken.append(occ)
        self._unissued_head = head
        if head >= n:
            # Compact the consumed prefix.
            self._unissued = []
            self._unissued_head = 0
        self.faults_issued += len(taken)
        return taken

    def on_pages_resident(self, pages: Iterable[int]) -> bool:
        """Driver notification; True when the warp becomes unblocked.

        Unblocking marks the stage *satisfied*: its accesses retired when
        their pages were (momentarily) resident, so a later advance must not
        re-demand them even if eviction has reclaimed the pages since.
        """
        unblocked = False
        for page in pages:
            unblocked = self.on_page_resident(page) or unblocked
        return unblocked

    def on_page_resident(self, page: int) -> bool:
        """:meth:`on_pages_resident` for one page (the engine's form)."""
        missing = self.missing
        if page in missing:
            missing.discard(page)
            if not missing:
                self._stage_satisfied = True
                return True
        return False

    def requeue(self, page: int, access: AccessType) -> None:
        """Re-demand an occurrence whose fault was flushed before service."""
        if access == AccessType.PREFETCH:
            return  # prefetches are hints; dropped means forgotten
        if page in self.missing:
            self._unissued.append((page, access))

    # ------------------------------------------------------------ internals

    def _block_on(
        self,
        pages: Sequence[int],
        access: AccessType,
        resident: Set[int],
    ) -> bool:
        """Compute the stage's missing set; True if the warp must block."""
        if not pages:
            return False
        missing = {p for p in pages if p not in resident}
        if not missing:
            return False
        self.missing = missing
        self._unissued = [(p, access) for p in pages if p in missing]
        self._unissued_head = 0
        return True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"WarpState(uid={self.uid}, sm={self.sm_id}, "
            f"phase={self._phase_idx}/{len(self.program.phases)}, "
            f"missing={len(self.missing)}, finished={self.finished})"
        )
