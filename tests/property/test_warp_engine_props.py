"""Property-based tests on warp execution and end-to-end engine invariants
over randomly generated small workloads."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import UvmSystem
from repro.config import default_config
from repro.gpu.fault import AccessType
from repro.gpu.warp import KernelLaunch, Phase, WarpProgram, WarpState
from repro.units import MB, PAGE_SIZE

page_st = st.integers(min_value=0, max_value=63)


def phases_strategy(max_phases=4, max_pages=6):
    phase = st.builds(
        Phase.of,
        reads=st.lists(page_st, max_size=max_pages),
        writes=st.lists(page_st, max_size=max_pages),
        compute_usec=st.floats(min_value=0, max_value=5, allow_nan=False),
    )
    return st.lists(phase, min_size=1, max_size=max_phases)


class TestWarpStateProps:
    @given(phases_strategy())
    def test_warp_completes_with_all_resident(self, phases):
        warp = WarpState(WarpProgram(phases), uid=1, sm_id=0)
        resident = set(range(64))
        result = warp.advance(resident)
        assert result.finished

    @given(phases_strategy())
    @settings(max_examples=50)
    def test_manual_service_loop_terminates(self, phases):
        """Simulate a perfect driver: every demanded page gets serviced.

        The warp must finish within a bounded number of service rounds and
        its issued faults must cover every page it ever waited on.
        """
        warp = WarpState(WarpProgram(phases), uid=1, sm_id=0)
        resident = set()
        result = warp.advance(resident)
        rounds = 0
        issued = []
        while not result.finished:
            rounds += 1
            assert rounds < 100
            occs = warp.take_issuable(1000)
            issued.extend(occs)
            pages = {p for p, _ in occs} | set(warp.missing)
            resident |= pages
            assert warp.on_pages_resident(pages)
            result = warp.advance(resident)
        # Everything the program touches ends resident.
        assert warp.program.touched_pages <= resident or not warp.program.touched_pages

    @given(phases_strategy())
    def test_issued_pages_were_missing(self, phases):
        warp = WarpState(WarpProgram(phases), uid=1, sm_id=0)
        warp.advance(set())
        if warp.blocked:
            missing_before = set(warp.missing)
            occs = warp.take_issuable(1000)
            assert {p for p, _ in occs} <= missing_before


small_page_st = st.integers(min_value=0, max_value=5)
issue_op_st = st.one_of(
    st.tuples(st.just("take")),
    st.tuples(st.just("resident"), small_page_st),
    st.tuples(
        st.just("requeue"),
        small_page_st,
        st.sampled_from([AccessType.READ, AccessType.WRITE, AccessType.PREFETCH]),
    ),
)


class TestTakeNextProps:
    @given(
        st.lists(small_page_st, min_size=1, max_size=8),
        st.sets(small_page_st),
        st.lists(issue_op_st, max_size=40),
    )
    def test_take_next_matches_take_issuable(self, reads, resident, ops):
        """Over random interleavings of notifications, re-demands and takes
        within one stage, ``take_next`` issues exactly the occurrence
        sequence repeated ``take_issuable(1)`` does, and never swaps out the
        queue while the warp is blocked."""
        program = WarpProgram((Phase.of(reads),))
        fast = WarpState(program, uid=1, sm_id=0)
        reference = WarpState(program, uid=2, sm_id=0)
        fast.advance(resident)
        reference.advance(resident)
        queue = fast._unissued
        for op in ops:
            if op[0] == "take":
                occ = fast.take_next()
                assert reference.take_issuable(1) == ([] if occ is None else [occ])
            elif op[0] == "resident":
                assert fast.on_page_resident(op[1]) == reference.on_pages_resident([op[1]])
            else:
                fast.requeue(op[1], op[2])
                reference.requeue(op[1], op[2])
            assert fast.missing == reference.missing
            if fast.missing:
                assert fast._unissued is queue
        assert fast.faults_issued == reference.faults_issued


def small_kernels():
    """Random small kernels over a 64-page allocation."""
    return st.lists(
        phases_strategy(max_phases=3, max_pages=5),
        min_size=1,
        max_size=6,
    )


class TestEngineProps:
    def run_kernel(self, programs_phases, prefetch, gpu_mem_mb=4):
        cfg = default_config(prefetch_enabled=prefetch)
        cfg.gpu.num_sms = 4
        cfg.gpu.memory_bytes = gpu_mem_mb * MB
        system = UvmSystem(cfg)
        alloc = system.managed_alloc(64 * PAGE_SIZE)
        base = alloc.start_page

        def shift(phase):
            return Phase.of(
                [base + p for p in phase.reads],
                [base + p for p in phase.writes],
                compute_usec=phase.compute_usec,
            )

        programs = [
            WarpProgram([shift(ph) for ph in phases])
            for phases in programs_phases
        ]
        kernel = KernelLaunch("prop", programs)
        result = system.launch(kernel)
        return system, alloc, result

    @given(small_kernels(), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_every_kernel_terminates_with_pages_resident(self, programs, prefetch):
        system, alloc, result = self.run_kernel(programs, prefetch)
        pt = system.engine.device.page_table
        touched = set()
        for phases in programs:
            for ph in phases:
                touched |= set(ph.reads) | set(ph.writes)
        for off in touched:
            assert pt.is_resident(alloc.start_page + off)
        assert system.engine.device.idle

    @given(small_kernels(), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_full_invariant_suite_holds(self, programs, prefetch):
        """Every random workload leaves the system in a validated state."""
        from repro.validate import validate_system

        system, _, _ = self.run_kernel(programs, prefetch)
        violations = validate_system(system)
        assert violations == [], "\n".join(str(v) for v in violations)

    @given(small_kernels())
    @settings(max_examples=25, deadline=None)
    def test_invariants_under_eviction_pressure(self, programs):
        """The validator also passes when the run thrashes (2-chunk device)."""
        from repro.validate import validate_system

        system, _, _ = self.run_kernel(programs, prefetch=False, gpu_mem_mb=4)
        violations = validate_system(system)
        assert violations == [], "\n".join(str(v) for v in violations)

    @given(small_kernels())
    @settings(max_examples=30, deadline=None)
    def test_batch_times_are_ordered_and_positive(self, programs):
        system, _, result = self.run_kernel(programs, prefetch=False)
        prev_end = 0.0
        for r in result.records:
            assert r.t_start >= prev_end
            assert r.duration > 0
            prev_end = r.t_end

    @given(small_kernels())
    @settings(max_examples=30, deadline=None)
    def test_unique_faults_bounded_by_touched_pages(self, programs):
        """Without eviction pressure, each page faults at most once per
        distinct µTLB demand; unique faults per batch never exceed the
        touched footprint."""
        system, _, result = self.run_kernel(programs, prefetch=False, gpu_mem_mb=4)
        touched = set()
        for phases in programs:
            for ph in phases:
                touched |= set(ph.reads) | set(ph.writes)
        for r in result.records:
            assert r.num_faults_unique <= max(1, len(touched))

    @given(small_kernels(), st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_component_times_sum_to_duration(self, programs, prefetch):
        """With the serial driver, duration == sum of component timers."""
        system, _, result = self.run_kernel(programs, prefetch)
        for r in result.records:
            assert abs(r.duration - r.service_time) < 1e-6 * max(1.0, r.duration)
