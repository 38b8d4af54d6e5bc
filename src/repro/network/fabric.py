"""Wormhole-approximated mesh fabric with per-link contention.

Each directed mesh link of each subnetwork is a
:class:`~repro.sim.resources.ContentionPoint`.  A packet of ``f`` flits
traversing ``h`` links is charged ``hop * h + f`` cycles uncontended
(header routing pipelined with body serialization); under contention the
header additionally queues at every link behind packets that occupy it.
This reproduces the paper's Table 2 latencies exactly in the
uncontended case and preserves the qualitative behaviour of hot links
without flit-level simulation (DESIGN.md section 3).

Each subnet's state lives on one slotted :class:`_Lane`, and two kernel
fast paths keep the model cheap without changing a single arrival time
(docs/PERF.md):

- every XY route is resolved when the fabric is built, into a tuple of
  :class:`~repro.sim.resources.ContentionPoint` objects, instead of
  re-walking mesh coordinates on every transfer;
- the lane tracks the latest time any of its links is occupied to
  (``max_free``).  A transfer departing at or after that horizon
  cannot queue anywhere, so its arrival is the closed form
  ``depart + hop * h + f`` and each link on the path takes a branchless
  idle-occupation update.  Any transfer departing earlier takes the
  per-hop contended walk, inlined over each link's single server slot —
  under contention, and under retransmission traffic from the lossy
  transport, semantics are untouched.
"""

from __future__ import annotations

from collections import deque

from repro.config import LatencyConfig
from repro.network.topology import Mesh, Subnet
from repro.network.message import Message, MessageKind
from repro.sim.resources import ContentionPoint


#: Default capacity of the trace ring buffer.  Long fault campaigns
#: run with ``record_trace=True`` must not grow memory without bound;
#: 65536 records comfortably cover any single transaction or episode a
#: test wants to inspect.
DEFAULT_TRACE_LIMIT = 65_536

_REQUEST = Subnet.REQUEST


class _Lane:
    """One subnet's routes and contention horizon."""

    __slots__ = ("routes", "max_free")

    def __init__(self, routes: dict[tuple[int, int], tuple[tuple, int]]):
        #: (src, dst) -> (the route's single-server ContentionPoints in
        #: hop order, hop count).
        self.routes = routes
        #: The latest time any link of the subnet is occupied to.  A
        #: transfer departing at or after it cannot queue.
        self.max_free = 0


class MeshFabric:
    """The physical interconnect: two subnets of contended links."""

    def __init__(
        self,
        mesh: Mesh,
        latency: LatencyConfig,
        record_trace: bool = False,
        trace_limit: int = DEFAULT_TRACE_LIMIT,
    ):
        self.mesh = mesh
        self.latency = latency
        self._hop = latency.hop
        self._links: dict[Subnet, dict[tuple[int, int], ContentionPoint]] = {
            subnet: {
                link: ContentionPoint(name=f"{subnet.name}:{link[0]}->{link[1]}")
                for link in mesh.all_links()
            }
            for subnet in Subnet
        }
        self._request = self._lane(Subnet.REQUEST)
        self._reply = self._lane(Subnet.REPLY)
        self.record_trace = record_trace
        if trace_limit <= 0:
            raise ValueError("trace_limit must be positive")
        #: Ring buffer of the most recent ``trace_limit`` messages.
        self.trace: deque[Message] = deque(maxlen=trace_limit)
        #: Messages evicted from the full ring buffer (so consumers can
        #: tell a short trace from a truncated one).
        self.trace_dropped = 0
        # aggregate statistics
        self.messages_sent = 0
        self.flits_carried = 0
        self.data_bytes_carried = 0

    def _lane(self, subnet: Subnet) -> _Lane:
        """Resolve every XY route of ``subnet`` into its links."""
        links = self._links[subnet]
        n = self.mesh.n_nodes
        routes = {}
        for src in range(n):
            for dst in range(n):
                if src != dst:
                    route = tuple(links[link] for link in self.mesh.xy_route(src, dst))
                    routes[src, dst] = (route, len(route))
        return _Lane(routes)

    # -- core transfer --------------------------------------------------

    def transfer(
        self,
        src: int,
        dst: int,
        flits: int,
        subnet: Subnet,
        depart: int,
        kind: MessageKind | None = None,
        item: int | None = None,
        data_bytes: int = 0,
    ) -> int:
        """Move a packet from ``src`` to ``dst``; return arrival time.

        A transfer between a node and itself costs nothing (the request
        never enters the network).
        """
        if src == dst:
            return depart
        lane = self._request if subnet is _REQUEST else self._reply
        route, hops = lane.routes[src, dst]
        hop = self._hop
        if depart >= lane.max_free:
            # Contention-free fast-forward: no link in the subnet is
            # occupied past ``depart``, so nothing on the path can make
            # the header wait and the arrival is closed-form.  Each link
            # still records the occupation so a later, earlier-departing
            # transfer that takes the contended walk sees identical link
            # state.
            end = depart + flits
            for point in route:
                point._free[0] = end
                point.busy_cycles += flits
                point.uses += 1
                end += hop
            # ends of successive links grow by ``hop``: the last one is
            # the new horizon, and one more ``hop`` is the arrival
            lane.max_free = end - hop
            arrival = end
        else:
            # the header waits at each link until its server is free,
            # then holds it for the packet's flits
            cursor = depart
            for point in route:
                free = point._free
                start = free[0]
                if cursor > start:
                    start = cursor
                free[0] = start + flits
                point.busy_cycles += flits
                point.uses += 1
                cursor = start + hop
            arrival = cursor + flits
            # link starts are non-decreasing along the path, so the last
            # link's occupation end bounds this transfer's contribution
            end_last = arrival - hop
            if end_last > lane.max_free:
                lane.max_free = end_last
        self.messages_sent += 1
        self.flits_carried += flits * hops
        self.data_bytes_carried += data_bytes
        if self.record_trace and kind is not None:
            if len(self.trace) == self.trace.maxlen:
                self.trace_dropped += 1
            self.trace.append(
                Message(kind=kind, src=src, dst=dst, item=item, depart=depart, arrive=arrival)
            )
        return arrival

    # -- convenience wrappers --------------------------------------------

    def control(
        self,
        src: int,
        dst: int,
        subnet: Subnet,
        depart: int,
        kind: MessageKind | None = None,
        item: int | None = None,
    ) -> int:
        """Send a control packet (request/ack/invalidation)."""
        return self.transfer(src, dst, self.latency.control_flits, subnet, depart, kind, item)

    def data(
        self,
        src: int,
        dst: int,
        item_bytes: int,
        depart: int,
        kind: MessageKind | None = None,
        item: int | None = None,
    ) -> int:
        """Send a packet carrying a full memory item on the reply subnet."""
        flits = self.latency.control_flits + self.latency.item_flits(item_bytes)
        return self.transfer(src, dst, flits, Subnet.REPLY, depart, kind, item, item_bytes)

    def broadcast(
        self,
        src: int,
        targets: list[int],
        subnet: Subnet,
        depart: int,
        kind: MessageKind | None = None,
    ) -> dict[int, int]:
        """Send one control packet to each target; return arrival times."""
        return {
            dst: self.control(src, dst, subnet, depart, kind=kind) for dst in targets
        }

    # -- introspection --------------------------------------------------

    def link_utilisation(self, elapsed: int) -> dict[Subnet, float]:
        """Mean link utilisation per subnet over ``elapsed`` cycles."""
        result = {}
        for subnet, links in self._links.items():
            if not links:
                result[subnet] = 0.0
                continue
            result[subnet] = sum(p.utilisation(elapsed) for p in links.values()) / len(links)
        return result

    def reset_stats(self) -> None:
        self.messages_sent = 0
        self.flits_carried = 0
        self.data_bytes_carried = 0
        self.trace.clear()
        self.trace_dropped = 0
        for links in self._links.values():
            for point in links.values():
                point.reset()
        # links are idle again, so the fast-forward horizons restart
        self._request.max_free = self._reply.max_free = 0
