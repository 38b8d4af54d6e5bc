"""Unit tests for the event engine."""

import pytest

from repro.sim.engine import Engine, SimulationError


def test_initial_time_is_zero():
    assert Engine().now == 0


def test_schedule_and_run_in_order():
    engine = Engine()
    seen = []
    engine.schedule(10, lambda: seen.append("b"))
    engine.schedule(5, lambda: seen.append("a"))
    engine.schedule(20, lambda: seen.append("c"))
    engine.run()
    assert seen == ["a", "b", "c"]


def test_time_advances_to_event_times():
    engine = Engine()
    times = []
    engine.schedule(7, lambda: times.append(engine.now))
    engine.schedule(13, lambda: times.append(engine.now))
    engine.run()
    assert times == [7, 13]


def test_same_time_events_fifo_order():
    engine = Engine()
    seen = []
    for tag in range(5):
        engine.schedule(3, lambda t=tag: seen.append(t))
    engine.run()
    assert seen == [0, 1, 2, 3, 4]


def test_schedule_at_absolute():
    engine = Engine()
    hit = []
    engine.schedule_at(42, lambda: hit.append(engine.now))
    engine.run()
    assert hit == [42]


def test_schedule_in_past_raises():
    engine = Engine()
    engine.schedule(10, lambda: None)
    engine.run()
    with pytest.raises(SimulationError):
        engine.schedule_at(5, lambda: None)


def test_negative_delay_raises():
    engine = Engine()
    with pytest.raises(SimulationError):
        engine.schedule(-1, lambda: None)


def test_run_until_stops_before_later_events():
    engine = Engine()
    seen = []
    engine.schedule(5, lambda: seen.append(5))
    engine.schedule(50, lambda: seen.append(50))
    final = engine.run(until=20)
    assert seen == [5]
    assert final == 20
    assert engine.pending_events() == 1


def test_run_until_then_resume():
    engine = Engine()
    seen = []
    engine.schedule(5, lambda: seen.append(5))
    engine.schedule(50, lambda: seen.append(50))
    engine.run(until=20)
    engine.run()
    assert seen == [5, 50]


def test_run_until_advances_time_when_idle():
    engine = Engine()
    engine.run(until=100)
    assert engine.now == 100


def test_run_until_in_the_past_raises():
    """The clock never moves backwards: a horizon before ``now`` is a
    misuse, like scheduling in the past, and leaves the engine as it
    was (pending events still fire at their own times)."""
    engine = Engine()
    seen = []
    engine.schedule_at(100, lambda: seen.append(engine.now))
    engine.schedule_at(150, lambda: seen.append(engine.now))
    engine.run(until=100)
    with pytest.raises(SimulationError, match="cannot run until 50"):
        engine.run(until=50)
    assert engine.now == 100
    with pytest.raises(SimulationError):
        engine.schedule_at(60, lambda: seen.append(engine.now))
    engine.run(until=100)  # a horizon equal to now is allowed
    engine.run()
    assert seen == [100, 150]


def test_events_scheduled_during_dispatch():
    engine = Engine()
    seen = []

    def first():
        seen.append("first")
        engine.schedule(5, lambda: seen.append("second"))

    engine.schedule(1, first)
    engine.run()
    assert seen == ["first", "second"]
    assert engine.now == 6


def test_max_events_limit():
    engine = Engine()
    seen = []
    for i in range(10):
        engine.schedule(i, lambda i=i: seen.append(i))
    engine.run(max_events=3)
    assert len(seen) == 3


def test_events_dispatched_counter():
    engine = Engine()
    for i in range(4):
        engine.schedule(i, lambda: None)
    engine.run()
    assert engine.events_dispatched == 4


def test_idle_reporting():
    engine = Engine()
    assert engine.idle()
    engine.schedule(1, lambda: None)
    assert not engine.idle()
    engine.run()
    assert engine.idle()


def test_reentrant_run_rejected():
    engine = Engine()

    def nested():
        with pytest.raises(SimulationError):
            engine.run()

    engine.schedule(1, nested)
    engine.run()


def test_zero_delay_runs_at_current_time():
    engine = Engine()
    times = []

    def outer():
        engine.schedule(0, lambda: times.append(engine.now))

    engine.schedule(5, outer)
    engine.run()
    assert times == [5]


def test_non_integral_float_delay_rejected():
    engine = Engine()
    with pytest.raises(SimulationError, match="non-integral"):
        engine.schedule(2.9, lambda: None)
    with pytest.raises(SimulationError, match="non-integral"):
        engine.schedule_at(2.9, lambda: None)


def test_integral_float_delay_accepted():
    engine = Engine()
    times = []
    engine.schedule(3.0, lambda: times.append(engine.now))
    engine.run()
    assert times == [3]


# -- batching edge cases ---------------------------------------------------


def test_same_cycle_fifo_across_sources():
    """A same-timestamp batch interleaves heap entries and zero-delay
    work scheduled *by* the batch in strict schedule (FIFO) order."""
    engine = Engine()
    log = []
    engine.schedule_at(5, lambda: (log.append("a"),
                                   engine.schedule(0, lambda: log.append("a0"))))
    engine.schedule_at(5, lambda: (log.append("b"),
                                   engine.schedule_at(5, lambda: log.append("b0"))))
    engine.schedule_at(5, lambda: log.append("c"))
    engine.run()
    # heap entries at t=5 first (lower seq), then the zero-delay work in
    # the order it was scheduled
    assert log == ["a", "b", "c", "a0", "b0"]
    assert engine.now == 5


def test_until_exactly_on_batch_boundary():
    """``until`` equal to a batch's timestamp dispatches that whole
    batch; the next batch (strictly later) stays pending."""
    engine = Engine()
    log = []
    for tag in ("x", "y"):
        engine.schedule_at(10, lambda tag=tag: log.append(tag))
    engine.schedule_at(11, lambda: log.append("late"))
    engine.run(until=10)
    assert log == ["x", "y"]
    assert engine.now == 10
    assert engine.pending_events() == 1
    engine.run()
    assert log == ["x", "y", "late"]


def test_max_events_splits_a_same_timestamp_batch():
    """``max_events`` can stop mid-batch; a later run resumes the rest
    of the batch at the same timestamp in FIFO order."""
    engine = Engine()
    log = []
    for i in range(5):
        engine.schedule_at(7, lambda i=i: log.append(i))
    engine.run(max_events=2)
    assert log == [0, 1]
    assert engine.now == 7
    assert engine.pending_events() == 3
    engine.run()
    assert log == [0, 1, 2, 3, 4]
    assert engine.now == 7


def test_max_events_splits_batch_with_zero_delay_work():
    """Stopping mid-batch must not lose zero-delay work scheduled by
    the dispatched prefix (it is flushed back onto the heap)."""
    engine = Engine()
    log = []
    engine.schedule_at(3, lambda: (log.append("a"),
                                   engine.schedule(0, lambda: log.append("a0"))))
    engine.schedule_at(3, lambda: log.append("b"))
    engine.run(max_events=2)
    assert log == ["a", "b"]
    assert engine.pending_events() == 1
    engine.run()
    assert log == ["a", "b", "a0"]
    assert engine.now == 3
