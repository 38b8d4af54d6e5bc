"""Unit tests for EventFlag."""

from repro.sim.engine import Engine
from repro.sim.process import Process
from repro.sim.sync import EventFlag


# ---------------------------------------------------------------- EventFlag

def test_flag_wakes_all_waiters():
    engine = Engine()
    flag = EventFlag(engine)
    woke = []

    def waiter(tag):
        yield flag
        woke.append(tag)

    for t in range(3):
        Process(engine, waiter(t))
    engine.schedule(5, flag.fire)
    engine.run()
    assert sorted(woke) == [0, 1, 2]


def test_flag_value_delivery():
    engine = Engine()
    flag = EventFlag(engine)
    got = []

    def waiter():
        got.append((yield flag))

    Process(engine, waiter())
    engine.schedule(1, lambda: flag.fire({"k": 1}))
    engine.run()
    assert got == [{"k": 1}]


def test_flag_reset_rearms():
    engine = Engine()
    flag = EventFlag(engine)
    flag.fire("one")
    assert flag.is_set
    flag.reset()
    assert not flag.is_set
    assert flag.value is None


def test_flag_set_property():
    engine = Engine()
    flag = EventFlag(engine)
    assert not flag.is_set
    flag.fire(7)
    assert flag.is_set
    assert flag.value == 7
