"""Event heap and simulation clock.

Time is measured in integer processor cycles (50 ns at the paper's
20 MHz clock).  The engine is deliberately minimal: a stable priority
queue of ``(time, sequence, callback)`` entries and a run loop.  All
higher-level behaviour (processes, barriers, contention) is layered on
top in the sibling modules.

The run loop dispatches in *same-timestamp batches*: the clock moves
once per distinct timestamp, the ``until`` horizon is checked once per
batch instead of once per event, and zero-delay work scheduled during a
batch lands on an O(1) now-queue instead of churning through the heap.
There is one kind of event: once scheduled, it fires when the clock
reaches it.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Callable


class SimulationError(RuntimeError):
    """Raised on misuse of the simulation kernel (e.g. scheduling in the past)."""


class Engine:
    """A discrete-event simulation engine with integer-cycle time."""

    def __init__(self) -> None:
        self._now: int = 0
        self._seq: int = 0
        self._heap: list[tuple] = []  # (time, seq, callback)
        #: Zero-delay work scheduled *during* dispatch at the current
        #: timestamp; drained after the heap's same-timestamp batch (its
        #: entries always carry later sequence numbers than anything at
        #: this timestamp already in the heap, so FIFO order holds).
        self._nowq: deque[tuple] = deque()
        self._running = False
        #: Number of events dispatched so far (useful for tests and as a
        #: watchdog against runaway simulations).
        self.events_dispatched: int = 0

    @property
    def now(self) -> int:
        """Current simulation time in cycles."""
        return self._now

    def _push(self, time: int, callback: Callable[[], None]) -> None:
        """Validate ``time`` once, build the entry, queue it."""
        itime = int(time)
        if itime != time:
            raise SimulationError(
                f"non-integral event time {time!r}: the clock counts whole "
                f"cycles (pass an int, or a float with no fractional part)"
            )
        if itime < self._now:
            raise SimulationError(
                f"cannot schedule at {itime}, current time is {self._now}"
            )
        entry = (itime, self._seq, callback)
        self._seq += 1
        if itime == self._now and self._running:
            # zero-delay fast path: the dispatch loop drains this queue
            # at the current timestamp, no heap traffic at all
            self._nowq.append(entry)
        else:
            heapq.heappush(self._heap, entry)

    def schedule_at(self, time: int, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` to run at absolute ``time``."""
        self._push(time, callback)

    def schedule(self, delay: int, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` to run ``delay`` cycles from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        self._push(self._now + delay, callback)

    def run(self, until: int | None = None, max_events: int | None = None) -> int:
        """Dispatch events in time order.

        Runs until no events are pending, until simulated time would
        exceed ``until``, or until ``max_events`` events have been
        dispatched.  Returns the final simulation time.  An ``until``
        before the current time raises :class:`SimulationError`: the
        clock never moves backwards.

        Events sharing a timestamp dispatch as one batch in schedule
        (FIFO) order — including zero-delay events scheduled by the
        batch itself — with the horizon checks per batch, not per event.
        """
        if self._running:
            raise SimulationError("engine is already running (re-entrant run call)")
        if until is not None and until < self._now:
            raise SimulationError(
                f"cannot run until {until}, current time is {self._now}"
            )
        self._running = True
        heap = self._heap
        nowq = self._nowq
        pop = heapq.heappop
        dispatched = 0
        stop = False
        try:
            while not stop:
                if not heap:
                    if until is not None:
                        self._now = until
                    break
                t = heap[0][0]
                if until is not None and t > until:
                    self._now = until
                    break
                self._now = t
                # Dispatch the whole batch at t: heap entries first (they
                # pre-date everything the batch schedules, so their
                # sequence numbers are lower), then the now-queue.
                if max_events is None:
                    while True:
                        if heap and heap[0][0] == t:
                            callback = pop(heap)[2]
                        elif nowq:
                            callback = nowq.popleft()[2]
                        else:
                            break
                        callback()
                        dispatched += 1
                else:
                    while True:
                        if heap and heap[0][0] == t:
                            callback = pop(heap)[2]
                        elif nowq:
                            callback = nowq.popleft()[2]
                        else:
                            break
                        callback()
                        dispatched += 1
                        if dispatched >= max_events:
                            stop = True
                            break
        finally:
            self.events_dispatched += dispatched
            while nowq:  # stopped mid-batch: undrained zero-delay work
                heapq.heappush(heap, nowq.popleft())  # (seq keeps FIFO order)
            self._running = False
        return self._now

    def idle(self) -> bool:
        """True when no events are pending."""
        return self.pending_events() == 0

    def pending_events(self) -> int:
        return len(self._heap) + len(self._nowq)
