"""Unit tests for generator-based processes."""

import pytest

from repro.sim.engine import Engine, SimulationError
from repro.sim.process import Process, ProcessState
from repro.sim.sync import EventFlag


def test_process_runs_to_completion():
    engine = Engine()
    log = []

    def body():
        log.append(engine.now)
        yield 10
        log.append(engine.now)
        yield 5
        log.append(engine.now)

    proc = Process(engine, body(), name="t")
    engine.run()
    assert log == [0, 10, 15]
    assert proc.done


def test_process_return_value():
    engine = Engine()

    def body():
        yield 1
        return "result"

    proc = Process(engine, body())
    engine.run()
    assert proc.result == "result"
    assert proc.state is ProcessState.DONE


def test_completion_flag_fires_with_return_value():
    engine = Engine()

    def worker():
        yield 3
        return 99

    def waiter(target):
        value = yield target.completion
        results.append(value)

    results = []
    w = Process(engine, worker())
    Process(engine, waiter(w))
    engine.run()
    assert results == [99]


def test_two_processes_interleave():
    engine = Engine()
    log = []

    def ticker(name, step):
        for _ in range(3):
            yield step
            log.append((name, engine.now))

    Process(engine, ticker("a", 2))
    Process(engine, ticker("b", 3))
    engine.run()
    # at t=6 both tick; b scheduled its wake-up earlier (at t=3), so it
    # resumes first (stable FIFO order within a cycle)
    assert log == [
        ("a", 2), ("b", 3), ("a", 4), ("b", 6), ("a", 6), ("b", 9),
    ]


def test_waiting_on_event_flag():
    engine = Engine()
    flag = EventFlag(engine)
    log = []

    def waiter():
        value = yield flag
        log.append((engine.now, value))

    Process(engine, waiter())
    engine.schedule(25, lambda: flag.fire("go"))
    engine.run()
    assert log == [(25, "go")]


def test_wait_on_already_set_flag_resumes_immediately():
    engine = Engine()
    flag = EventFlag(engine)
    flag.fire("early")
    log = []

    def waiter():
        value = yield flag
        log.append((engine.now, value))

    Process(engine, waiter())
    engine.run()
    assert log == [(0, "early")]


def test_negative_yield_raises():
    engine = Engine()

    def body():
        yield -5

    Process(engine, body())
    with pytest.raises(SimulationError):
        engine.run()


def test_non_integral_float_yield_raises():
    engine = Engine()
    log = []

    def body():
        yield 2.5
        log.append(engine.now)  # never reached: no silent truncation

    Process(engine, body())
    with pytest.raises(SimulationError, match="non-integral"):
        engine.run()
    assert log == []


def test_integral_float_yield_accepted():
    engine = Engine()
    log = []

    def body():
        yield 2.0
        log.append(engine.now)
        yield 3
        log.append(engine.now)

    proc = Process(engine, body())
    engine.run()
    assert log == [2, 5]
    assert all(type(t) is int for t in log)
    assert proc.done


def test_unsupported_yield_raises():
    engine = Engine()

    def body():
        yield "nonsense"

    Process(engine, body())
    with pytest.raises(SimulationError):
        engine.run()


def test_exception_marks_process_failed():
    engine = Engine()

    def body():
        yield 1
        raise ValueError("boom")

    proc = Process(engine, body())
    with pytest.raises(ValueError):
        engine.run()
    assert proc.failed
    assert isinstance(proc.error, ValueError)


def test_zero_yield_resumes_same_cycle():
    engine = Engine()
    log = []

    def body():
        yield 0
        log.append(engine.now)

    Process(engine, body())
    engine.run()
    assert log == [0]


def test_empty_body_completes():
    engine = Engine()

    def body():
        return
        yield  # pragma: no cover

    proc = Process(engine, body())
    engine.run()
    assert proc.done
