"""Differential property test: the mesh fabric against a naive model.

The reference charges every hop of every transfer through
``ContentionPoint.occupy`` on its own links: no route table, no
contention horizon, no fast path.  Whatever the order of departures,
the fabric must return the same arrivals and leave every link, and its
message counters, in the same state.
"""

from hypothesis import example, given, settings, strategies as st

from repro.config import LatencyConfig
from repro.network.fabric import MeshFabric
from repro.network.topology import Mesh, Subnet
from repro.sim.resources import ContentionPoint


class NaiveFabric:
    """Walks the XY route of every transfer, one ``occupy`` per hop."""

    def __init__(self, mesh: Mesh, latency: LatencyConfig):
        self.mesh = mesh
        self.hop = latency.hop
        self.links = {
            subnet: {link: ContentionPoint() for link in mesh.all_links()}
            for subnet in Subnet
        }
        self.messages_sent = 0
        self.flits_carried = 0

    def transfer(self, src, dst, flits, subnet, depart):
        if src == dst:
            return depart
        route = self.mesh.xy_route(src, dst)
        cursor = depart
        for link in route:
            # the header starts on a link when it is free, then moves on
            start = self.links[subnet][link].occupy(cursor, flits) - flits
            cursor = start + self.hop
        self.messages_sent += 1
        self.flits_carried += flits * len(route)
        return cursor + flits

    def reset_stats(self):
        self.messages_sent = 0
        self.flits_carried = 0
        for links in self.links.values():
            for point in links.values():
                point.reset()


def assert_same_state(fabric: MeshFabric, naive: NaiveFabric) -> None:
    assert fabric.messages_sent == naive.messages_sent
    assert fabric.flits_carried == naive.flits_carried
    for subnet in Subnet:
        for link, point in fabric._links[subnet].items():
            ref = naive.links[subnet][link]
            assert (point._free, point.busy_cycles, point.uses) == (
                ref._free, ref.busy_cycles, ref.uses
            ), (subnet, link)


def horizon(naive: NaiveFabric, subnet: Subnet) -> int:
    """The latest time any link of ``subnet`` is occupied to."""
    return max((p._free[0] for p in naive.links[subnet].values()), default=0)


#: One step: a transfer ``(src, dst, flits, subnet, gap, anchored)``
#: departing ``gap`` cycles after the previous transfer, or, when
#: ``anchored``, ``gap`` cycles after the subnet's horizon (a negative
#: gap departs out of order, below the horizon); ``None`` is a
#: ``reset_stats``.
transfer_steps = st.tuples(
    st.integers(0, 15), st.integers(0, 15), st.sampled_from([4, 36]),
    st.sampled_from(list(Subnet)), st.integers(-80, 120), st.just(False),
) | st.tuples(
    st.integers(0, 15), st.integers(0, 15), st.sampled_from([4, 36]),
    st.sampled_from(list(Subnet)), st.integers(-12, 4), st.just(True),
)
steps = st.lists(st.one_of(transfer_steps, st.none()), max_size=60)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), steps)
@example(4, 4, [
    (0, 3, 36, Subnet.REQUEST, 0, False),     # idle mesh: fast path
    (2, 3, 4, Subnet.REQUEST, -1, True),      # 1 cycle early on the hot link
    (1, 3, 4, Subnet.REQUEST, -10, False),    # departs earlier: contended walk
    (2, 2, 4, Subnet.REPLY, 5, False),        # src == dst never enters the mesh
    (3, 0, 36, Subnet.REPLY, 200, False),     # past the horizon again
    (3, 0, 4, Subnet.REPLY, -1, True),        # just below the horizon
    None,                                     # reset mid-sequence
    (0, 15, 4, Subnet.REQUEST, -300, False),  # after the reset: idle links
    (15, 0, 36, Subnet.REQUEST, 1, False),
])
@example(2, 1, [
    (0, 1, 36, Subnet.REQUEST, 0, False),     # link 0->1 busy to 36
    (0, 1, 36, Subnet.REQUEST, 0, False),     # queues behind it: busy to 72
    (0, 1, 4, Subnet.REQUEST, -12, True),     # departs at 60: still queues
])
def test_fabric_matches_naive_per_hop_model(width, height, sequence):
    mesh = Mesh(width, height)
    latency = LatencyConfig()
    fabric = MeshFabric(mesh, latency)
    naive = NaiveFabric(mesh, latency)
    n = mesh.n_nodes
    depart = 0
    for step in sequence:
        if step is None:
            fabric.reset_stats()
            naive.reset_stats()
            continue
        src, dst, flits, subnet, gap, anchored = step
        src, dst = src % n, dst % n
        depart = max(0, gap + (horizon(naive, subnet) if anchored else depart))
        assert fabric.transfer(src, dst, flits, subnet, depart) == naive.transfer(
            src, dst, flits, subnet, depart
        )
    assert_same_state(fabric, naive)
