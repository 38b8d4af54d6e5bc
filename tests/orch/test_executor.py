"""Executor tests: the in-process path, pool completion and set-up.

The policy shared by every transport (retry, timeout, reassignment,
fallback) is held by ``test_executor_contract.py``.  Worker callables
live at module level so they pickle into pool workers (the tests
package is importable).
"""

import os
import subprocess
import sys
import time

from repro.orch.executor import run_tasks


def _square(x):
    return x * x


def _sleep_forever(x):
    time.sleep(30)
    return x


def _flaky(path):
    """Fails on the first attempt, succeeds once the marker exists."""
    if os.path.exists(path):
        return "recovered"
    with open(path, "w") as handle:
        handle.write("seen")
    raise RuntimeError("first attempt fails")


def _collect(payloads, **kwargs):
    return list(run_tasks(payloads, **kwargs))


def test_serial_execution():
    outcomes = _collect([1, 2, 3], worker=_square, parallel=1)
    assert [o.value for o in sorted(outcomes, key=lambda o: o.index)] == [1, 4, 9]
    assert all(o.ok and o.mode == "serial" for o in outcomes)


def test_parallel_execution_completes_all():
    outcomes = _collect(list(range(6)), worker=_square, parallel=2)
    assert sorted(o.value for o in outcomes) == [0, 1, 4, 9, 16, 25]
    assert all(o.ok for o in outcomes)
    assert all(o.mode == "parallel" for o in outcomes)


def test_serial_retry_recovers_transient_failure(tmp_path):
    marker = str(tmp_path / "marker")
    outcomes = _collect([marker], worker=_flaky, parallel=1, max_retries=2,
                        retry_backoff=0.0)
    (outcome,) = outcomes
    assert outcome.ok and outcome.attempts == 2 and outcome.mode == "serial"


def test_timeout_abandons_the_task():
    t0 = time.monotonic()
    outcomes = _collect([1], worker=_sleep_forever, parallel=2,
                        task_timeout=0.3, max_retries=0)
    elapsed = time.monotonic() - t0
    (outcome,) = outcomes
    assert outcome.timed_out and not outcome.ok
    assert outcome.value is None
    assert elapsed < 20  # nowhere near the worker's 30s sleep


def test_pool_unavailable_degrades_to_serial(monkeypatch):
    import repro.orch.executor as executor_module

    def _no_pool(max_workers):
        raise OSError("no processes for you")

    monkeypatch.setattr(executor_module, "ProcessPoolExecutor", _no_pool)
    outcomes = _collect([2, 3], worker=_square, parallel=4)
    assert sorted(o.value for o in outcomes) == [4, 9]
    assert {o.mode for o in outcomes} == {"serial"}


def test_retry_backoff_does_not_stall_other_cells(tmp_path):
    """A backed-off retry waits as a not-before time on the requeued
    attempt, not as a sleep: the next cell runs in the meantime."""
    seen = tmp_path / "seen"
    seen.write_text("seen")
    outcomes = _collect([str(tmp_path / "fresh"), str(seen)], worker=_flaky,
                        parallel=1, retry_backoff=0.2)
    assert [(o.index, o.attempts) for o in outcomes] == [(1, 1), (0, 2)]
    assert all(o.ok for o in outcomes)


def test_serial_path_stays_in_process(monkeypatch):
    """``parallel=1`` builds no pool and imports nothing distributed."""
    import repro.orch.executor as executor_module

    def _no_pool(max_workers):
        raise AssertionError("parallel=1 built a process pool")

    monkeypatch.setattr(executor_module, "ProcessPoolExecutor", _no_pool)
    assert [o.value for o in run_tasks([-2], abs)] == [2]
    code = (
        "import sys\n"
        "from repro.orch.executor import run_tasks\n"
        "assert [o.mode for o in run_tasks([-2], abs)] == ['serial']\n"
        "sys.exit(any(m.startswith('repro.distributed') for m in sys.modules))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
