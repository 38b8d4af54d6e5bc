"""Unit tests for contention modelling."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.resources import ContentionPoint


# ------------------------------------------------------------ ContentionPoint

def test_uncontended_occupy():
    cp = ContentionPoint()
    assert cp.occupy(at=100, service=20) == 120


def test_back_to_back_occupations_queue():
    cp = ContentionPoint()
    assert cp.occupy(0, 10) == 10
    assert cp.occupy(0, 10) == 20
    assert cp.occupy(0, 10) == 30
    assert cp.waited_cycles == 10 + 20


def test_late_arrival_does_not_wait():
    cp = ContentionPoint()
    cp.occupy(0, 10)
    assert cp.occupy(50, 10) == 60
    assert cp.waited_cycles == 0


def test_busy_cycles_accumulate():
    cp = ContentionPoint()
    cp.occupy(0, 7)
    cp.occupy(0, 3)
    assert cp.busy_cycles == 10
    assert cp.uses == 2


def test_utilisation():
    cp = ContentionPoint()
    cp.occupy(0, 50)
    assert cp.utilisation(100) == pytest.approx(0.5)
    assert cp.utilisation(0) == 0.0
    assert cp.utilisation(10) == 1.0  # clamped


def test_reset():
    cp = ContentionPoint()
    cp.occupy(0, 10)
    cp.reset()
    assert cp.next_free == 0
    assert cp.busy_cycles == 0
    assert cp.uses == 0


def test_multi_server_parallelism():
    cp = ContentionPoint(servers=2)
    assert cp.occupy(0, 10) == 10
    assert cp.occupy(0, 10) == 10  # second server
    assert cp.occupy(0, 10) == 20  # queues behind the earlier finisher


def test_multi_server_four_controllers():
    cp = ContentionPoint(servers=4)
    ends = [cp.occupy(0, 20) for _ in range(4)]
    assert ends == [20, 20, 20, 20]
    assert cp.occupy(0, 20) == 40


class _ListContentionPoint:
    """Reference model of ``ContentionPoint``: a plain list of server
    free times, a job served by the lowest-index server among the
    earliest free."""

    def __init__(self, servers):
        self.free = [0] * servers
        self.busy_cycles = self.uses = self.waited_cycles = 0

    def occupy(self, at, service):
        idx = self.free.index(min(self.free))
        start = max(at, self.free[idx])
        self.waited_cycles += start - at
        self.free[idx] = start + service
        self.busy_cycles += service
        self.uses += 1
        return start + service

    def reset(self):
        self.__init__(len(self.free))


#: One step of the differential test: an occupation, or a reset.
_steps = st.one_of(
    st.tuples(
        # a narrow range of arrival times makes ties and out-of-order
        # arrivals common
        st.integers(min_value=0, max_value=60),
        st.integers(min_value=0, max_value=25),
    ),
    st.just("reset"),
)


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=1, max_value=5), st.lists(_steps, max_size=40))
def test_occupy_matches_lowest_index_list_model(servers, steps):
    cp = ContentionPoint(servers=servers)
    ref = _ListContentionPoint(servers)
    for step in steps:
        if step == "reset":
            cp.reset()
            ref.reset()
        else:
            at, service = step
            assert cp.occupy(at, service) == ref.occupy(at, service)
        assert (cp.waited_cycles, cp.busy_cycles, cp.uses) == (
            ref.waited_cycles, ref.busy_cycles, ref.uses
        )
        assert cp.next_free == min(ref.free)
        assert sorted(cp._free) == sorted(ref.free)


def test_multi_server_next_free_is_earliest():
    cp = ContentionPoint(servers=2)
    cp.occupy(0, 100)
    assert cp.next_free == 0  # the other server is idle
    cp.occupy(0, 30)
    assert cp.next_free == 30


def test_invalid_server_count():
    with pytest.raises(ValueError):
        ContentionPoint(servers=0)
