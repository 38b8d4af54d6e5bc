"""Synchronisation primitives for simulated processes: condition flags
and member barriers."""

from __future__ import annotations

from typing import Any, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Engine
    from repro.sim.process import Process


class EventFlag:
    """A one-shot (but re-armable) condition processes can wait on.

    ``fire(value)`` wakes every waiter, sending ``value`` into each
    waiting generator.  After firing, the flag stays *set*: a process
    that waits on an already-set flag resumes immediately with the fired
    value.  ``reset()`` re-arms the flag.
    """

    __slots__ = ("engine", "name", "_waiters", "_set", "_value")

    def __init__(self, engine: "Engine", name: str = "event"):
        self.engine = engine
        self.name = name
        self._waiters: list["Process"] = []
        self._set = False
        self._value: Any = None

    # waitable protocol -------------------------------------------------

    def _subscribe(self, process: "Process") -> None:
        if self._set:
            process._resume(self._value)
        else:
            self._waiters.append(process)

    # public API ---------------------------------------------------------

    def fire(self, value: Any = None) -> None:
        """Set the flag and wake all waiters."""
        self._set = True
        self._value = value
        waiters, self._waiters = self._waiters, []
        for process in waiters:
            process._resume(value)

    def reset(self) -> None:
        self._set = False
        self._value = None

    @property
    def is_set(self) -> bool:
        return self._set

    @property
    def value(self) -> Any:
        return self._value

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "set" if self._set else f"{len(self._waiters)} waiting"
        return f"<EventFlag {self.name} {state}>"


class MemberBarrier:
    """A reusable barrier over an explicit member set.

    Each member yields ``barrier.arrive(member)``; when every expected
    member has arrived, all waiters resume on the same cycle with the
    completed generation index and the barrier re-arms.  Arrivals are
    keyed by member: arriving twice in one generation is idempotent,
    and a member that fails mid-phase can be *removed* — its stale
    arrival is discarded and the release condition re-evaluated.  This
    is what global checkpoint/recovery coordination needs when nodes
    can die between two phases of the same episode.
    """

    __slots__ = ("engine", "name", "expected", "generation", "_arrived", "_flag")

    def __init__(self, engine: "Engine", members, name: str = "mbarrier"):
        members = set(members)
        if not members:
            raise ValueError("member barrier needs at least one member")
        self.engine = engine
        self.name = name
        self.expected: set = members
        self.generation = 0
        self._arrived: set = set()
        self._flag = EventFlag(engine, name=f"{name}.gen")

    def arrive(self, member) -> EventFlag:
        """Register ``member``'s arrival; yield the flag to wait."""
        flag = self._flag
        if member in self.expected:
            self._arrived.add(member)
            self._maybe_release()
        return flag

    def remove_member(self, member) -> None:
        """A member failed: stop expecting it (and drop its arrival)."""
        self.expected.discard(member)
        self._arrived.discard(member)
        if not self.expected:
            return
        self._maybe_release()

    def _maybe_release(self) -> None:
        if self.expected and self.expected <= self._arrived:
            generation = self.generation
            self.generation += 1
            self._arrived.clear()
            flag = self._flag
            self._flag = EventFlag(self.engine, name=f"{self.name}.gen")
            flag.fire(generation)

    @property
    def waiting(self) -> int:
        return len(self._arrived)

    @property
    def arrived(self) -> frozenset:
        """Members that arrived in the current generation (diagnostics)."""
        return frozenset(self._arrived)
