"""Coordinator fault handling against scripted in-process workers.

These tests exercise what only the socket transport does — handshake,
heartbeat misses, EOF deaths, connect retry, stragglers, stats — without
spawning real daemons: a :class:`FakeWorker` thread speaks the wire
protocol and misbehaves on cue.  The policy it shares with the local
pool (retry, timeout, reassignment, fallback) is held by the executor
contract suite, ``tests/orch/test_executor_contract.py``.
"""

from __future__ import annotations

import socket
import threading

import pytest

from repro.distributed.coordinator import (
    Coordinator,
    DispatchError,
    DistributedExecutor,
)
from repro.distributed.registry import WorkerState
from tests.distributed.fakes import FakeWorker, spawn_fakes


@pytest.fixture
def spawn():
    workers: list[FakeWorker] = []

    def _spawn(*modes: str, slots: int = 1) -> list[FakeWorker]:
        workers.extend(spawn_fakes(*modes, slots=slots))
        return workers

    yield _spawn
    for worker in workers:
        worker.close()


def _coordinator(workers, **kwargs) -> Coordinator:
    kwargs.setdefault("heartbeat_interval", 0.05)
    kwargs.setdefault("heartbeat_misses", 2)
    kwargs.setdefault("connect_timeout", 5.0)
    return Coordinator([w.addr for w in workers], **kwargs)


PAYLOADS = [{"cell": i} for i in range(6)]


def test_dispatches_across_workers(spawn):
    workers = spawn("good", "good")
    coordinator = _coordinator(workers)
    outcomes = list(coordinator.run(PAYLOADS, "campaign-cell"))
    assert len(outcomes) == len(PAYLOADS)
    assert all(o.ok for o in outcomes)
    assert sorted(o.value["echo"]["cell"] for o in outcomes) == list(range(6))
    assert all(o.mode == "distributed" for o in outcomes)
    assert coordinator.stats.connected == 2
    assert coordinator.stats.completed == len(PAYLOADS)
    assert coordinator.stats.worker_deaths == 0
    # both fakes actually carried load
    assert all(w.tasks_seen > 0 for w in workers)


def test_heartbeat_miss_kills_worker_and_reassigns(spawn):
    workers = spawn("good", "silent")
    coordinator = _coordinator(workers)
    outcomes = list(coordinator.run(PAYLOADS, "campaign-cell"))
    assert len(outcomes) == len(PAYLOADS)
    assert all(o.ok for o in outcomes)
    assert coordinator.stats.worker_deaths == 1
    assert coordinator.stats.reassignments >= 1
    dead = [w for w in coordinator.registry if w.state is WorkerState.DEAD]
    assert len(dead) == 1
    assert "heartbeat" in dead[0].death_reason
    # reassignment must not have consumed the cells' retry budget
    assert all(o.attempts == 1 for o in outcomes)


def test_eof_death_reassigns_inflight_cell(spawn):
    workers = spawn("good", "die-on-task")
    coordinator = _coordinator(workers)
    outcomes = list(coordinator.run(PAYLOADS, "campaign-cell"))
    assert len(outcomes) == len(PAYLOADS)
    assert all(o.ok for o in outcomes)
    assert coordinator.stats.worker_deaths == 1
    assert coordinator.stats.reassignments >= 1


def _free_addr() -> tuple[str, int]:
    """A freshly bound-then-closed port: nothing listens there (yet)."""
    probe = socket.socket()
    probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    probe.bind(("127.0.0.1", 0))
    addr = probe.getsockname()
    probe.close()
    return addr


def test_no_worker_reachable_raises_dispatch_error():
    coordinator = Coordinator(
        [_free_addr()], connect_timeout=2.0,
        connect_retries=2, connect_backoff=0.05,
    )
    with pytest.raises(DispatchError, match="no worker reachable"):
        list(coordinator.run(PAYLOADS, "campaign-cell"))
    dead = [w for w in coordinator.registry if w.state is WorkerState.DEAD]
    assert len(dead) == 1
    # the bounded redial ran out, and the reason says so
    assert "after 2 attempt(s)" in dead[0].death_reason


def test_connect_retry_tolerates_late_worker_start():
    """Start order must not matter: the daemon comes up *after* the
    coordinator begins dialling, and the bounded redial bridges the
    gap instead of declaring the worker dead."""
    addr = _free_addr()
    late: list[FakeWorker] = []

    def start_worker():
        worker = FakeWorker(mode="good", port=addr[1])
        worker.start()
        late.append(worker)

    timer = threading.Timer(0.6, start_worker)
    timer.start()
    try:
        coordinator = Coordinator(
            [addr], connect_timeout=2.0,
            connect_retries=8, connect_backoff=0.1,
            local_fallback=False,
        )
        outcomes = list(coordinator.run(PAYLOADS, "campaign-cell"))
    finally:
        timer.cancel()
        for worker in late:
            worker.close()
    assert late, "the late worker never started"
    assert len(outcomes) == len(PAYLOADS)
    assert all(o.ok for o in outcomes)
    assert coordinator.stats.connected == 1
    assert coordinator.stats.worker_deaths == 0
    assert coordinator.stats.local_fallback_cells == 0


def test_straggler_joins_pool_mid_run(spawn):
    """One worker is up immediately, the other's daemon starts late:
    dispatch begins on the first wave and the straggler joins the
    pool once its redial lands, without stalling the run."""
    workers = spawn("slow")
    addr = _free_addr()
    late: list[FakeWorker] = []

    def start_worker():
        worker = FakeWorker(mode="good", port=addr[1])
        worker.start()
        late.append(worker)

    timer = threading.Timer(0.5, start_worker)
    timer.start()
    try:
        coordinator = Coordinator(
            [workers[0].addr, addr], connect_timeout=0.3,
            connect_retries=10, connect_backoff=0.1,
            local_fallback=False,
        )
        # enough cells that the run outlives the straggler's redial
        payloads = [{"cell": i} for i in range(40)]
        outcomes = list(coordinator.run(payloads, "campaign-cell"))
    finally:
        timer.cancel()
        for worker in late:
            worker.close()
    assert len(outcomes) == len(payloads)
    assert all(o.ok for o in outcomes)
    assert coordinator.stats.connected == 2
    assert coordinator.stats.worker_deaths == 0
    # the straggler actually carried load once it joined
    assert late[0].tasks_seen > 0


def test_unknown_kind_is_refused_up_front(spawn):
    workers = spawn("good")
    coordinator = _coordinator(workers)
    with pytest.raises(DispatchError, match="unknown task kind"):
        list(coordinator.run(PAYLOADS, "arbitrary-exec"))


def test_executor_refuses_unregistered_callables(spawn):
    workers = spawn("good")
    executor = DistributedExecutor([w.addr for w in workers])
    with pytest.raises(DispatchError, match="not a registered"):
        list(executor.run(PAYLOADS, test_dispatches_across_workers))


def test_executor_runs_and_records_stats(spawn):
    from repro.fault.campaign import execute_campaign_payload

    workers = spawn("good", slots=2)
    executor = DistributedExecutor(
        [w.addr for w in workers],
        heartbeat_interval=0.05, heartbeat_misses=2,
    )
    outcomes = list(executor.run(PAYLOADS, execute_campaign_payload))
    assert all(o.ok for o in outcomes)
    assert executor.coordinator is None  # cleared after the run
    assert executor.last_stats is not None
    assert executor.last_stats.completed == len(PAYLOADS)
    assert executor.last_stats.workers[0]["slots"] == 2
