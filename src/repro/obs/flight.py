"""The run's one event ring: recent structured events, or all of them when traced.

Chaos runs used to die with a stack trace and nothing else — the batch log
shows *completed* batches, the metrics registry shows totals, but neither
says what the system was doing in the moments before it fell over.  The
flight recorder is the black box: a ring (:class:`collections.deque`) of
small ``(sim_time, kind, args)`` tuples fed by the engine, driver, copy
engines, injector, and sanitizer at their interesting transitions — batch
open/close/abort, retries and failovers, evictions, checkpoints, injected
crashes, invariant violations.

The same ring is the per-fault instrumentation of the paper's first driver
variant (§3.1).  A traced system (``UvmSystem(trace=True)``) also records
one ``fault`` event per fetched fault, stamped with its buffer-arrival time,
and one ``migrate`` event per VABlock extent made resident; trace capture
and the Fig 3/16/17 experiments read those.

Design contract (same as every :mod:`repro.obs` instrument):

* **timeline-neutral** — the recorder only *observes*; it never advances the
  :class:`~repro.sim.clock.SimClock` or draws RNG, so the simulated timeline
  is bit-identical with it on or off (and its contents are deterministic:
  equal seeds produce byte-identical event dumps);
* **near-zero cost** — one tuple build plus one deque append per event when
  on; the shared :data:`NULL_FLIGHT` null object when off, so call sites
  never branch;
* **bounded unless traced** — the ring keeps the newest
  :data:`FLIGHT_CAPACITY` events and counts overwrites in :attr:`dropped`,
  so a week-long soak costs the same memory as a smoke test; a traced ring
  keeps every event;
* **never rewound** — a checkpoint restore leaves the ring alone, so the
  events of a rolled-back segment stay in it, followed by
  ``crash.injected`` and ``crash.recovered``.

Every event is also teed into the NDJSON sink when one is attached.  Crash
bundles (:mod:`repro.obs.bundle`) dump the newest :data:`FLIGHT_CAPACITY`
events on the way down; the ``uvm-repro analyze`` report engine replays
them to name the failing batch.
"""

from __future__ import annotations

from collections import deque
from typing import Iterator, List, Optional, Tuple

#: One recorded event: (simulated time µs, event kind, kind-specific args).
FlightEvent = Tuple[float, str, Tuple]

#: Events an untraced ring keeps, and a crash bundle dumps (newest win).
FLIGHT_CAPACITY = 512

#: Event kinds the stock hooks emit (call sites may add more; the bundle
#: schema treats the kind as an open string).  ``fault`` and ``migrate``
#: are recorded only by a traced ring.
KNOWN_KINDS = (
    "batch.open",
    "batch.close",
    "batch.abort",
    "retry",
    "failover",
    "evict",
    "checkpoint",
    "crash.injected",
    "crash.recovered",
    "launch",
    "launch.done",
    "resume",
    "san.violation",
    "ce.stuck",
    "ce.transfer_fault",
    "ce.brownout",
    "fault",
    "migrate",
)


class FlightRecorder:
    """Ring of recent structured events (the run's black box).

    ``capacity=None`` makes the ring unbounded: that is a traced ring,
    which the driver also feeds per-fault ``fault`` and ``migrate`` events.
    """

    __slots__ = ("clock", "capacity", "traced", "sink", "dropped", "_ring")

    enabled = True

    def __init__(self, clock, capacity: Optional[int] = FLIGHT_CAPACITY, sink=None) -> None:
        if capacity is not None and capacity <= 0:
            raise ValueError("flight recorder capacity must be positive or None")
        self.clock = clock
        self.capacity = capacity
        self.traced = capacity is None
        #: NDJSON sink every recorded event is teed into (None = no tee).
        self.sink = sink
        self.dropped = 0
        self._ring: deque = deque(maxlen=capacity)

    # ------------------------------------------------------------ recording

    def record(self, kind: str, *args) -> None:
        """Append one event stamped with the current simulated time."""
        self.record_at(self.clock.now, kind, *args)

    def record_at(self, time: float, kind: str, *args) -> None:
        """Append one event stamped ``time`` (a fault's arrival, say)."""
        ring = self._ring
        if len(ring) == self.capacity:
            self.dropped += 1
        ring.append((time, kind, args))
        if self.sink is not None:
            self.sink.write({"type": "event", "t": time, "kind": kind, "args": list(args)})

    # -------------------------------------------------------------- queries

    def __len__(self) -> int:
        return len(self._ring)

    def __iter__(self) -> Iterator[FlightEvent]:
        return iter(self._ring)

    def events(self) -> List[FlightEvent]:
        return list(self._ring)

    def tail(self, n: int) -> List[FlightEvent]:
        """The newest ``n`` events, oldest first."""
        if n <= 0:
            return []
        return list(self._ring)[-n:]

    def select(self, kind: str) -> List[FlightEvent]:
        return [e for e in self._ring if e[1] == kind]

    def last(self, kind: str) -> Optional[FlightEvent]:
        """Newest event of ``kind`` (None when the ring holds none)."""
        for event in reversed(self._ring):
            if event[1] == kind:
                return event
        return None

    def clear(self) -> None:
        self._ring.clear()
        self.dropped = 0

    # --------------------------------------------------------- serialization

    def to_dicts(self, n: Optional[int] = None) -> List[dict]:
        """The ring (or its newest ``n`` events) as JSON-ready dicts, oldest
        first (the bundle format)."""
        events = self._ring if n is None else self.tail(n)
        return [
            {"t": time, "kind": kind, "args": list(args)}
            for time, kind, args in events
        ]


class _NullFlightRecorder:
    """Shared no-op stand-in when the flight recorder is off."""

    __slots__ = ()

    enabled = False
    capacity = 0
    traced = False
    dropped = 0

    def record(self, kind: str, *args) -> None:
        pass

    def record_at(self, time: float, kind: str, *args) -> None:
        pass

    def __len__(self) -> int:
        return 0

    def __iter__(self):
        return iter(())

    def events(self) -> List[FlightEvent]:
        return []

    def tail(self, n: int) -> List[FlightEvent]:
        return []

    def select(self, kind: str) -> List[FlightEvent]:
        return []

    def last(self, kind: str) -> Optional[FlightEvent]:
        return None

    def clear(self) -> None:
        pass

    def to_dicts(self, n: Optional[int] = None) -> List[dict]:
        return []


NULL_FLIGHT = _NullFlightRecorder()
