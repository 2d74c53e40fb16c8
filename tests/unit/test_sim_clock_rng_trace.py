"""Unit tests for the simulation kernel: clock and RNG streams, and the
traced event ring."""

import pytest

from repro.obs.flight import FLIGHT_CAPACITY, FlightRecorder
from repro.sim.clock import SimClock
from repro.sim.rng import make_rng, spawn_rng


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now == 0.0

    def test_custom_start(self):
        assert SimClock(5.0).now == 5.0

    def test_advance_accumulates(self):
        clock = SimClock()
        clock.advance(1.5)
        clock.advance(2.5)
        assert clock.now == 4.0

    def test_advance_returns_new_time(self):
        assert SimClock().advance(3.0) == 3.0

    def test_negative_advance_rejected(self):
        with pytest.raises(ValueError):
            SimClock().advance(-1.0)

    def test_advance_to_future(self):
        clock = SimClock()
        clock.advance_to(10.0)
        assert clock.now == 10.0

    def test_advance_to_never_rewinds(self):
        clock = SimClock(10.0)
        clock.advance_to(5.0)
        assert clock.now == 10.0

    def test_section_elapsed(self):
        clock = SimClock()
        section = clock.section()
        clock.advance(7.0)
        assert section.elapsed == 7.0
        assert section.start == 0.0

    def test_zero_advance_allowed(self):
        clock = SimClock()
        clock.advance(0.0)
        assert clock.now == 0.0


class TestRng:
    def test_make_rng_deterministic(self):
        a = make_rng(42).integers(0, 1000, 10)
        b = make_rng(42).integers(0, 1000, 10)
        assert (a == b).all()

    def test_spawn_streams_independent(self):
        a = spawn_rng(0, "alpha").integers(0, 1_000_000, 20)
        b = spawn_rng(0, "beta").integers(0, 1_000_000, 20)
        assert (a != b).any()

    def test_spawn_same_stream_reproducible(self):
        a = spawn_rng(7, "workload").random(5)
        b = spawn_rng(7, "workload").random(5)
        assert (a == b).all()

    def test_spawn_different_seeds_differ(self):
        a = spawn_rng(1, "x").random(10)
        b = spawn_rng(2, "x").random(10)
        assert (a != b).any()


class TestEventTrace:
    """The traced event ring: what ``UvmSystem(trace=True)`` records into
    (an unbounded :class:`FlightRecorder`)."""

    def test_emit_and_len(self):
        trace = FlightRecorder(SimClock(), capacity=None)
        trace.record_at(1.0, "fault", 0, 42)
        trace.record("batch.close", 0)
        assert len(trace) == 2
        assert trace.events() == [(1.0, "fault", (0, 42)), (0.0, "batch.close", (0,))]

    def test_disabled_records_nothing(self):
        """An untraced system keeps its black-box events but records no
        per-fault ``fault`` or ``migrate`` event."""
        from repro.api import UvmSystem
        from repro.workloads import WORKLOAD_REGISTRY

        system = UvmSystem()
        WORKLOAD_REGISTRY["vecadd"]().run(system)
        flight = system.obs.flight
        assert not flight.traced
        assert flight.select("batch.open")
        assert flight.select("fault") == []
        assert flight.select("migrate") == []

    def test_select(self):
        trace = FlightRecorder(SimClock(), capacity=None)
        trace.record_at(1.0, "evict", 0, 3, 100, 163, 64)
        trace.record_at(2.0, "evict", 1, 4, 50, 113, 64)
        trace.record_at(3.0, "batch.close", 1)
        evicts = trace.select("evict")
        assert [args[1] for _, _, args in evicts] == [3, 4]

    def test_clear(self):
        trace = FlightRecorder(SimClock(), capacity=None)
        trace.record("x")
        trace.clear()
        assert len(trace) == 0

    def test_iteration_order(self):
        """A traced ring keeps every event: no cap, nothing dropped."""
        trace = FlightRecorder(SimClock(), capacity=None)
        for i in range(FLIGHT_CAPACITY + 5):
            trace.record_at(float(i), "t", i)
        assert [args[0] for _, _, args in trace] == list(range(FLIGHT_CAPACITY + 5))
        assert trace.dropped == 0
