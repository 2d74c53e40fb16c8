"""Unit tests for the warp execution model (scoreboard semantics)."""

import pytest

from repro.gpu.fault import AccessType
from repro.gpu.warp import (
    AdvanceResult,
    KernelLaunch,
    Phase,
    WarpProgram,
    WarpState,
)


def make_warp(phases, uid=1, sm=0):
    return WarpState(WarpProgram(tuple(phases)), uid=uid, sm_id=sm)


class TestPhase:
    def test_of_builds_tuples(self):
        p = Phase.of([1, 2], [3], [4], compute_usec=1.0)
        assert p.reads == (1, 2)
        assert p.writes == (3,)
        assert p.prefetches == (4,)

    def test_pages_excludes_prefetches(self):
        p = Phase.of([1], [2], [99])
        assert p.pages == {1, 2}

    def test_duplicate_reads_preserved(self):
        p = Phase.of([5, 5, 6])
        assert p.reads == (5, 5, 6)

    def test_frozen(self):
        p = Phase.of([1])
        with pytest.raises(AttributeError):
            p.reads = (2,)


class TestWarpProgram:
    def test_total_accesses(self):
        prog = WarpProgram([Phase.of([1, 2], [3]), Phase.of([4])])
        assert prog.total_accesses == 4

    def test_touched_pages(self):
        prog = WarpProgram([Phase.of([1, 2], [3]), Phase.of([2], [5])])
        assert prog.touched_pages == {1, 2, 3, 5}


class TestKernelLaunch:
    def test_aggregates(self):
        k = KernelLaunch("k", [WarpProgram([Phase.of([1], [2])])])
        assert k.total_accesses == 2
        assert k.touched_pages == {1, 2}


class TestScoreboard:
    """Writes must wait for the phase's reads (paper §3.2, Listing 2)."""

    def test_blocks_on_reads_first(self):
        warp = make_warp([Phase.of([1, 2], [3])])
        result = warp.advance(resident=set())
        assert result.new_waits == {1, 2}
        assert warp.blocked
        # Writes are NOT demanded yet.
        assert all(a == AccessType.READ for _, a in warp._unissued)

    def test_writes_demand_after_reads_resident(self):
        warp = make_warp([Phase.of([1], [2])])
        warp.advance(resident=set())
        assert warp.on_pages_resident([1])
        result = warp.advance(resident={1})
        assert result.new_waits == {2}
        assert all(a == AccessType.WRITE for _, a in warp._unissued)

    def test_finishes_when_all_resident(self):
        warp = make_warp([Phase.of([1], [2])])
        result = warp.advance(resident={1, 2})
        assert result.finished
        assert warp.finished

    def test_compute_accrues_per_completed_phase(self):
        warp = make_warp(
            [Phase.of([1], compute_usec=3.0), Phase.of([2], compute_usec=4.0)]
        )
        result = warp.advance(resident={1, 2})
        assert result.compute_usec == pytest.approx(7.0)

    def test_multi_phase_blocks_at_first_missing(self):
        warp = make_warp([Phase.of([1]), Phase.of([2])])
        result = warp.advance(resident={1})
        assert result.new_waits == {2}


class TestPrefetchSemantics:
    def test_prefetches_emitted_without_blocking(self):
        warp = make_warp([Phase.of(prefetches=[1, 2, 3])])
        result = warp.advance(resident=set())
        assert result.prefetches == [1, 2, 3]
        assert result.finished  # prefetch-only program completes immediately

    def test_prefetch_emitted_once_per_phase(self):
        warp = make_warp([Phase.of([9], prefetches=[1])])
        r1 = warp.advance(resident=set())
        assert r1.prefetches == [1]
        warp.on_pages_resident([9])
        r2 = warp.advance(resident={9})
        assert r2.prefetches == []

    def test_prefetch_requeue_is_dropped(self):
        warp = make_warp([Phase.of([1])])
        warp.advance(resident=set())
        warp.requeue(1, AccessType.PREFETCH)
        # Prefetch hints are never re-demanded.
        assert len(warp._unissued) - warp._unissued_head == 1  # original read only


class TestIssuance:
    def test_take_issuable_respects_limit(self):
        warp = make_warp([Phase.of([1, 2, 3, 4])])
        warp.advance(resident=set())
        occs = warp.take_issuable(2)
        assert len(occs) == 2

    def test_take_issuable_skips_satisfied(self):
        warp = make_warp([Phase.of([1, 2])])
        warp.advance(resident=set())
        warp.on_pages_resident([1])  # page 1 resolved before issue
        occs = warp.take_issuable(10)
        assert occs == [(2, AccessType.READ)]

    def test_duplicate_occurrences_issue_separately(self):
        warp = make_warp([Phase.of([7, 7])])
        warp.advance(resident=set())
        occs = warp.take_issuable(10)
        assert occs == [(7, AccessType.READ), (7, AccessType.READ)]

    def test_peek_page(self):
        warp = make_warp([Phase.of([3, 4])])
        warp.advance(resident=set())
        assert warp.peek_page() == 3

    def test_peek_skips_satisfied(self):
        warp = make_warp([Phase.of([3, 4])])
        warp.advance(resident=set())
        warp.on_pages_resident([3])
        assert warp.peek_page() == 4

    def test_peek_none_when_drained(self):
        warp = make_warp([Phase.of([3])])
        warp.advance(resident=set())
        warp.take_issuable(1)
        assert warp.peek_page() is None

    def test_requeue_re_demands(self):
        warp = make_warp([Phase.of([5])])
        warp.advance(resident=set())
        warp.take_issuable(1)
        assert not warp.has_issuable
        warp.requeue(5, AccessType.READ)
        assert warp.has_issuable

    def test_requeue_ignored_when_satisfied(self):
        warp = make_warp([Phase.of([5])])
        warp.advance(resident=set())
        warp.take_issuable(1)
        warp.on_pages_resident([5])
        warp.requeue(5, AccessType.READ)
        assert not warp.has_issuable

    def test_faults_issued_counter(self):
        warp = make_warp([Phase.of([1, 2, 3])])
        warp.advance(resident=set())
        warp.take_issuable(2)
        assert warp.faults_issued == 2


class TestPeekRequeueRegression:
    """``peek_page`` must be pure (ISSUE 9 bugfix).

    An earlier version advanced ``_unissued_head`` past satisfied
    occurrences while peeking and reset the queue when it ran off the end —
    so a peek on a still-blocked warp could clear the issue queue out from
    under a concurrent post-replay-flush ``requeue``: the re-demanded
    occurrence landed in a freshly-reset list or was skipped by the
    advanced head, and the access was lost until livelock.
    """

    def test_peek_is_pure(self):
        warp = make_warp([Phase.of([1, 2, 3])])
        warp.advance(resident=set())
        warp.on_pages_resident([1])  # satisfied prefix the old code compacted
        before = (list(warp._unissued), warp._unissued_head)
        for _ in range(3):
            assert warp.peek_page() == 2
        assert (list(warp._unissued), warp._unissued_head) == before

    def test_peek_pure_when_all_unissued_satisfied(self):
        # The exact trigger of the old bug: every unissued occurrence is
        # satisfied, so the old peek ran off the end and reset the queue.
        warp = make_warp([Phase.of([1, 2])])
        warp.advance(resident=set())
        warp.take_issuable(1)  # issue page 1; page 2 still queued
        warp.on_pages_resident([2])  # resolves before issuing
        before = (list(warp._unissued), warp._unissued_head)
        assert warp.peek_page() is None
        assert (list(warp._unissued), warp._unissued_head) == before

    def test_peek_requeue_take_after_replay_flush(self):
        # Replay-flush scenario: both occurrences issued, then the fault
        # for page 2 is dropped by the pre-replay flush and re-demands.
        warp = make_warp([Phase.of([1, 2])])
        warp.advance(resident=set())
        assert warp.take_issuable(10) == [
            (1, AccessType.READ),
            (2, AccessType.READ),
        ]
        warp.on_pages_resident([1])
        assert warp.peek_page() is None  # nothing unissued yet
        warp.requeue(2, AccessType.READ)
        assert warp.peek_page() == 2  # peek sees the re-demand...
        assert warp.peek_page() == 2  # ...without consuming it
        assert warp.take_issuable(10) == [(2, AccessType.READ)]

    def test_peek_between_requeues_never_drops_occurrences(self):
        # Peeking over a satisfied head must not clear the queue a
        # following requeue appends to: both the original unissued
        # occurrence and the re-demand must issue.
        warp = make_warp([Phase.of([1, 2])])
        warp.advance(resident=set())
        warp.on_pages_resident([1])
        assert warp.peek_page() == 2
        warp.requeue(2, AccessType.READ)
        assert warp.take_issuable(10) == [
            (2, AccessType.READ),
            (2, AccessType.READ),
        ]


class TestTakeNext:
    """``take_next`` is the engine's one-scan issue primitive: it may move
    the head past satisfied occurrences, but never resets or truncates the
    queue while the warp is blocked (the ``requeue`` guarantee above)."""

    def test_pops_in_order_then_none(self):
        warp = make_warp([Phase.of([3, 4])])
        warp.advance(resident=set())
        assert warp.take_next() == (3, AccessType.READ)
        assert warp.take_next() == (4, AccessType.READ)
        assert warp.take_next() is None
        assert warp.faults_issued == 2

    def test_skips_satisfied(self):
        warp = make_warp([Phase.of([3, 4, 5])])
        warp.advance(resident=set())
        warp.on_page_resident(3)
        warp.on_page_resident(4)
        assert warp.take_next() == (5, AccessType.READ)
        assert warp.faults_issued == 1

    def test_requeue_after_head_skipped_satisfied_is_issued(self):
        warp = make_warp([Phase.of([1, 2, 3])])
        warp.advance(resident=set())
        assert warp.take_next() == (1, AccessType.READ)
        warp.on_page_resident(2)
        warp.on_page_resident(3)
        # The head runs past the satisfied occurrences to the end...
        assert warp.take_next() is None
        assert warp._unissued_head == len(warp._unissued)
        # ...and the flushed fault for page 1 still re-demands behind it.
        warp.requeue(1, AccessType.READ)
        assert warp.take_next() == (1, AccessType.READ)
        assert warp.take_next() is None

    def test_queue_never_reset_while_blocked(self):
        warp = make_warp([Phase.of([1, 2, 2])])
        warp.advance(resident=set())
        queue = warp._unissued
        contents = list(queue)
        while warp.take_next() is not None:
            pass
        warp.on_page_resident(2)
        assert warp.take_next() is None
        assert warp.missing == {1}
        assert warp._unissued is queue and queue == contents
        warp.requeue(1, AccessType.READ)
        assert warp._unissued is queue
        assert warp.take_next() == (1, AccessType.READ)

    def test_on_page_resident_unblocks_on_last_page(self):
        warp = make_warp([Phase.of([1, 2])])
        warp.advance(resident=set())
        assert not warp.on_page_resident(1)
        assert not warp.on_page_resident(1)  # already satisfied
        assert not warp.on_page_resident(99)  # not demanded
        assert warp.on_page_resident(2)
        assert not warp.blocked


class TestNotification:
    def test_partial_notification_stays_blocked(self):
        warp = make_warp([Phase.of([1, 2])])
        warp.advance(resident=set())
        assert not warp.on_pages_resident([1])
        assert warp.blocked

    def test_full_notification_unblocks(self):
        warp = make_warp([Phase.of([1, 2])])
        warp.advance(resident=set())
        assert warp.on_pages_resident([1, 2])
        assert not warp.blocked

    def test_unknown_page_notification_harmless(self):
        warp = make_warp([Phase.of([1])])
        warp.advance(resident=set())
        assert not warp.on_pages_resident([999])
