"""Coordinator-side worker registry and health accounting.

One :class:`WorkerHandle` per configured worker daemon tracks the
connection state, the advertised slot count, the set of in-flight task
ids, heartbeat liveness, and per-worker throughput counters.  The
registry is what the dispatcher consults to place work ("who is up with
a free slot?"), what the health check reaps ("whose pong is overdue?"),
and what ``repro serve`` renders as the per-worker table.

All mutation happens on the coordinator's scheduling thread; reader
threads only ever *post* events to the coordinator queue, so no locks
are needed beyond the snapshot copy taken for the dashboard.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum


class WorkerState(Enum):
    CONNECTING = "connecting"
    UP = "up"
    DEAD = "dead"


@dataclass
class WorkerHandle:
    """Live state of one worker daemon, as the coordinator sees it."""

    addr: tuple[str, int]
    state: WorkerState = WorkerState.CONNECTING
    slots: int = 1
    pid: int | None = None
    #: task_id -> time the task frame was sent.
    inflight: dict[int, float] = field(default_factory=dict)
    completed: int = 0
    failed: int = 0
    #: In-flight tasks taken from this worker after its death.
    reassigned_away: int = 0
    last_pong: float = field(default_factory=time.monotonic)
    busy_seconds: float = 0.0
    death_reason: str | None = None

    @property
    def name(self) -> str:
        return f"{self.addr[0]}:{self.addr[1]}"

    @property
    def free_slots(self) -> int:
        if self.state is not WorkerState.UP:
            return 0
        return max(0, self.slots - len(self.inflight))

    def throughput(self) -> float:
        """Completed cells per busy-second (0 before the first result)."""
        if self.busy_seconds <= 0:
            return 0.0
        return self.completed / self.busy_seconds

    def mark_dead(self, reason: str) -> list[int]:
        """Transition to DEAD; returns the task ids stranded in flight."""
        self.state = WorkerState.DEAD
        self.death_reason = reason
        stranded = sorted(self.inflight)
        self.reassigned_away += len(stranded)
        self.inflight.clear()
        return stranded

    def snapshot(self) -> dict:
        return {
            "addr": self.name,
            "state": self.state.value,
            "slots": self.slots,
            "pid": self.pid,
            "inflight": len(self.inflight),
            "completed": self.completed,
            "failed": self.failed,
            "reassigned_away": self.reassigned_away,
            "busy_seconds": round(self.busy_seconds, 3),
            "throughput_per_s": round(self.throughput(), 4),
            "death_reason": self.death_reason,
        }


class WorkerRegistry:
    """All workers of one coordinator run."""

    def __init__(self, addrs: list[tuple[str, int]]):
        self.workers = [WorkerHandle(addr=addr) for addr in addrs]

    def __iter__(self):
        return iter(self.workers)

    def up(self) -> list[WorkerHandle]:
        return [w for w in self.workers if w.state is WorkerState.UP]

    def with_free_slot(self) -> list[WorkerHandle]:
        """UP workers with capacity, least-loaded first (ties broken by
        completed count so a faster worker naturally attracts work)."""
        free = [w for w in self.workers if w.free_slots > 0]
        free.sort(key=lambda w: (len(w.inflight), -w.completed))
        return free

    def all_dead(self) -> bool:
        return all(w.state is WorkerState.DEAD for w in self.workers)

    def snapshot(self) -> list[dict]:
        return [w.snapshot() for w in self.workers]
