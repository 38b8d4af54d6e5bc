"""Contention modelling for analytic-latency transactions.

:class:`ContentionPoint` is the "next-free-time" bookkeeping used by
analytic-latency transactions (DESIGN.md section 3).  A transaction
that needs the point at time ``t`` for ``service`` cycles calls
:meth:`ContentionPoint.occupy`; the returned value is the time the
service *completes*, after queueing behind earlier users.  This is a
single-server FIFO approximation that preserves the shape of
contention effects without simulating every cycle.
"""

from __future__ import annotations

from heapq import heapreplace


class ContentionPoint:
    """FIFO contention bookkeeping (analytic transactions).

    ``servers`` models replicated units (e.g. the KSR1's four
    independent AM controllers): an occupation takes the
    earliest-free server.  This also absorbs the timeline artifact of
    analytic models where a reservation made at a future timestamp
    would otherwise delay an earlier request.

    The servers' free times are kept as a min-heap.  Which server of
    those sharing the earliest free time takes a job is not modelled:
    every completion time depends only on the *multiset* of free
    times, and replacing any one copy of the minimum leaves the same
    multiset.  A one-server heap is a plain one-slot list, which the
    fabric's contended walk reads and writes directly.
    """

    __slots__ = ("name", "_free", "busy_cycles", "uses", "waited_cycles")

    def __init__(self, name: str = "cp", servers: int = 1):
        if servers < 1:
            raise ValueError("need at least one server")
        self.name = name
        #: Server free times, a min-heap (all zero is a valid heap).
        self._free = [0] * servers
        #: Total cycles the point has been busy (utilisation numerator).
        self.busy_cycles: int = 0
        self.uses: int = 0
        #: Total cycles callers spent queueing behind earlier users.
        self.waited_cycles: int = 0

    @property
    def next_free(self) -> int:
        """Earliest time any server is free."""
        return self._free[0]

    def occupy(self, at: int, service: int) -> int:
        """Occupy the earliest-free server from ``at`` for ``service``
        cycles; returns the completion time."""
        free = self._free
        earliest = free[0]
        start = at if at > earliest else earliest
        self.waited_cycles += start - at
        end = start + service
        heapreplace(free, end)
        self.busy_cycles += service
        self.uses += 1
        return end

    def reset(self) -> None:
        self._free = [0] * len(self._free)
        self.busy_cycles = 0
        self.uses = 0
        self.waited_cycles = 0

    def utilisation(self, elapsed: int) -> float:
        """Fraction of ``elapsed`` cycles the point was busy."""
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_cycles / elapsed)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<ContentionPoint {self.name} next_free={self.next_free}>"
