"""The executor contract, held against both transports.

Retry, timeout, reassignment and the serial fallback are written once,
in :func:`repro.orch.executor.schedule`; every case here runs over the
local process pool (``pool``: a cell that SIGKILLs its pool process is
a lost worker) and over worker sockets (``socket``: scripted
:class:`~tests.distributed.fakes.FakeWorker` daemons).  Each leg
reports the outcomes and the core's decision counters, named as in
:class:`repro.distributed.DispatchStats`.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
from collections import Counter

import pytest

from repro.distributed import protocol
from repro.distributed.coordinator import Coordinator
from repro.orch import executor
from repro.orch.executor import DispatchError
from tests.distributed.fakes import spawn_fakes

#: Per scenario: the scripts of cell 0 and of the other cells in the
#: pool leg, and the FakeWorker fleet of the socket leg.
POOL_CELLS = {
    "fail": ("fail", "fail"),
    "flaky": ("flaky", "flaky"),
    "late": ("late", "ok"),
    "lost": ("die", "ok"),
    "total-loss": ("die", "die"),
}
FLEETS = {
    "fail": ["always-error"],
    "flaky": ["flaky"],
    "late": ["late"],
    "lost": ["good", "die-on-task"],
    "total-loss": ["die-on-task"],
}
#: The timeout of the ``late`` scenario.  A pool cell's first attempt
#: answers at 1.2x this; its retry, sent at 1x, is still running then.
LATE_TIMEOUT = 1.0


def _cell(payload: dict) -> dict:
    """The pool leg's cell (and both legs' in-process fallback),
    scripted by ``payload["do"]`` like the fakes are by their mode."""
    do = payload.get("do")
    if do == "die" and multiprocessing.parent_process() is not None:
        os.kill(os.getpid(), signal.SIGKILL)  # a pool process, never the test
    if do == "fail":
        raise RuntimeError("scripted failure")
    if do in ("flaky", "late") and not os.path.exists(payload["marker"]):
        open(payload["marker"], "w").close()
        if do == "flaky":
            raise RuntimeError("scripted failure")
        time.sleep(1.2 * LATE_TIMEOUT)
        return {"stale": payload}
    if do == "late":
        time.sleep(0.5 * LATE_TIMEOUT)
    return {"echo": payload}


def _pool_payloads(scenario: str, n: int, tmp_path) -> list[dict]:
    first, rest = POOL_CELLS[scenario]
    return [{"i": i, "do": rest if i else first,
             "marker": str(tmp_path / f"marker-{i}")} for i in range(n)]


@pytest.fixture(params=["pool", "socket"])
def leg(request, tmp_path, monkeypatch):
    """``leg(scenario, n, **policy) -> (outcomes, counters)``."""
    # the socket leg's in-process fallback resolves the wire kind
    monkeypatch.setitem(protocol.TASK_KINDS, "campaign-cell", f"{__name__}:_cell")
    fakes = []

    def run(scenario: str, n: int, on_start=None, **policy):
        policy.setdefault("max_retries", 1)
        if request.param == "pool":
            counts: Counter = Counter()
            outcomes = executor.schedule(
                _pool_payloads(scenario, n, tmp_path),
                executor.PoolTransport(_cell, 3), _cell, on_start=on_start,
                note=lambda counter, k=1: counts.update({counter: k}),
                **policy,
            )
            return list(outcomes), counts
        fleet = spawn_fakes(*FLEETS[scenario])
        fakes.extend(fleet)
        coordinator = Coordinator(
            [fake.addr for fake in fleet],
            heartbeat_interval=0.05, heartbeat_misses=2, **policy,
        )
        outcomes = list(coordinator.run(
            [{"i": i} for i in range(n)], "campaign-cell", on_start=on_start
        ))
        return outcomes, coordinator.stats.to_dict()

    yield run
    for fake in fakes:
        fake.close()


def _by_index(outcomes) -> dict:
    by_index = {o.index: o for o in outcomes}
    assert len(by_index) == len(outcomes), "a cell reported twice"
    return by_index


def test_retry_then_fail(leg):
    outcomes, counts = leg("fail", 2, local_fallback=False)
    assert len(outcomes) == 2
    for outcome in outcomes:
        assert not outcome.ok and not outcome.timed_out
        assert "scripted failure" in outcome.error
        assert outcome.attempts == 2  # 1 try + 1 retry
    assert counts["retries"] == 2 and counts["failed"] == 2


def test_retry_recovers(leg):
    (outcome,), counts = leg("flaky", 1, max_retries=2)
    assert outcome.ok and outcome.attempts == 2
    assert "echo" in outcome.value
    assert counts["retries"] == 1 and counts["completed"] == 1


def test_timeout_abandons_and_discards_late_answer(leg):
    """The first attempt of cell 0 outlives the timeout; the retry
    answers first, and the first attempt's stale answer, arriving while
    the run goes on, must be dropped rather than reported."""
    outcomes, counts = leg("late", 2, task_timeout=LATE_TIMEOUT)
    by_index = _by_index(outcomes)
    assert set(by_index) == {0, 1}
    assert all(o.ok and "echo" in o.value for o in outcomes)
    assert by_index[0].attempts == 2 and by_index[1].attempts == 1
    assert counts["timeouts"] == 1 and counts["retries"] == 1


def test_timeout_without_budget_reports_timed_out(leg):
    outcomes, counts = leg("late", 2, task_timeout=LATE_TIMEOUT, max_retries=0)
    by_index = _by_index(outcomes)
    assert by_index[0].timed_out and not by_index[0].ok
    assert by_index[0].value is None and by_index[0].attempts == 1
    assert by_index[1].ok
    assert counts["timeouts"] == 1 and counts["failed"] == 1


def test_lost_worker_cells_are_reassigned_unspent(leg):
    outcomes, counts = leg("lost", 6)
    assert len(_by_index(outcomes)) == 6
    assert all(o.ok and o.attempts == 1 for o in outcomes)
    assert sorted(o.value["echo"]["i"] for o in outcomes) == list(range(6))
    assert counts["reassignments"] >= 1 and counts["retries"] == 0


def test_total_loss_falls_back_to_serial(leg):
    outcomes, counts = leg("total-loss", 3)
    assert len(_by_index(outcomes)) == 3
    assert all(o.ok and o.attempts == 1 for o in outcomes)
    assert {o.mode for o in outcomes} == {"serial"}
    assert counts["local_fallback_cells"] == 3


def test_total_loss_without_fallback_raises(leg):
    with pytest.raises(DispatchError, match="every worker died"):
        leg("total-loss", 3, local_fallback=False)


def test_on_start_fires_once_per_cell_whichever_path_runs_it(leg):
    """Cells that first run in the serial fallback are journaled as
    started too: ``on_start`` fires exactly once for every index."""
    started = []
    outcomes, _ = leg("total-loss", 6, on_start=lambda i, _p: started.append(i))
    assert len(outcomes) == 6
    assert sorted(started) == list(range(6))
