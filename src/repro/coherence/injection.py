"""The two-step ring-walk injection engine.

"Injections are accomplished in two steps.  In a first step, an
injection message is sent to find a victim line on a remote node.  When
the victim node replies, the data is sent." (Section 4.1)

The probe walks the logical ring; a node refuses when it can neither
overwrite an Invalid/Shared slot of the item nor make room by
allocating or dropping a fully-replaceable page.  Because a
non-replaceable local copy of the same item also refuses, the two
copies of a recovery pair can never end up in the same memory.

Causes are those of Table 1 plus the master-replacement injection of
the standard protocol and the create-phase replication (which reuses
the injection machinery but does not drop the source copy —
Section 4.1: "the only difference being that the injected item copy is
not replaced in the memory of the node performing the injection").
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, NamedTuple

from repro.memory.attraction_memory import InjectionSlot
from repro.memory.states import _REPLACEABLE, ItemState
from repro.network.message import MessageKind
from repro.network.topology import Subnet

if TYPE_CHECKING:  # pragma: no cover
    from repro.coherence.standard import StandardProtocol

# every create-phase replication runs inject(): a module global is
# cheaper to read than an enum class attribute
_REQUEST = Subnet.REQUEST
_REPLY = Subnet.REPLY
_NO_SLOT = InjectionSlot.NONE
_INVALID = ItemState.INVALID
_SHARED = ItemState.SHARED
_INJECT_PROBE = MessageKind.INJECT_PROBE
_INJECT_ACCEPT = MessageKind.INJECT_ACCEPT
_INJECT_DATA = MessageKind.INJECT_DATA
_INJECT_ACK = MessageKind.INJECT_ACK


class InjectionFailed(RuntimeError):
    """No live AM could accept the injected copy — the irreplaceable-
    frame reservation was violated (should be prevented by
    :class:`~repro.memory.pages.PageRegistry`)."""


class InjectionCause(enum.Enum):
    """Why an item copy had to be injected."""

    # standard protocol (master copy replaced from a full AM set)
    REPLACEMENT_MASTER = "replacement_master"
    # Table 1 (ECP)
    REPLACEMENT_SHARED_CK = "replacement_shared_ck"
    REPLACEMENT_INV_CK = "replacement_inv_ck"
    READ_INV_CK = "read_inv_ck"
    WRITE_INV_CK = "write_inv_ck"
    WRITE_SHARED_CK = "write_shared_ck"
    # recovery-point establishment (Section 3.3) and reconfiguration
    # (Section 3.4); these reuse the machinery but are accounted apart.
    CREATE_REPLICATION = "create_replication"
    RECONFIGURATION = "reconfiguration"


#: Causes triggered by processor read accesses (Fig. 6 / Fig. 11 split).
READ_ACCESS_CAUSES = frozenset({InjectionCause.READ_INV_CK})
#: Causes triggered by processor write accesses.
WRITE_ACCESS_CAUSES = frozenset(
    {InjectionCause.WRITE_INV_CK, InjectionCause.WRITE_SHARED_CK}
)
#: Replacement-triggered causes.
REPLACEMENT_CAUSES = frozenset(
    {
        InjectionCause.REPLACEMENT_MASTER,
        InjectionCause.REPLACEMENT_SHARED_CK,
        InjectionCause.REPLACEMENT_INV_CK,
    }
)


class InjectionResult(NamedTuple):
    """Outcome of one injection."""

    acceptor: int
    #: Arrival of the acknowledgement at the source.
    complete: int
    #: Time the item data finished arriving at the acceptor — the
    #: create phase pipelines on this instead of the ack (Section 4.1:
    #: "a line is ready to be injected as soon as the previous
    #: injection is done").
    data_sent: int
    probe_hops: int


class InjectionEngine:
    """Executes injections on behalf of a protocol."""

    def __init__(self, protocol: "StandardProtocol"):
        self.protocol = protocol
        self._inject_ack_lat = protocol.cfg.latency.inject_ack

    def inject(
        self,
        src: int,
        item: int,
        install_state: ItemState,
        now: int,
        cause: InjectionCause,
        drop_local: bool = True,
        exclude: frozenset[int] | set[int] = frozenset(),
    ) -> InjectionResult:
        """Move (or copy) an item from ``src``'s AM to another AM.

        Returns the acceptor node and the completion time (arrival of
        the injection acknowledgement at ``src``).
        """
        # one frame: the protocol's hoisted flit counts replace the
        # fabric's control()/data() wrappers; transfer is looked up per
        # call, as the transport's entry point may be wrapped
        p = self.protocol
        nodes = p.nodes
        transfer = p.fabric.transfer
        control_flits = p._control_flits
        lookup_lat = p._pointer_lookup_lat
        acceptor: int | None = None
        probe_hops = 0
        t = now
        cursor = src
        for candidate in p.ring.walk_from(src):
            # the probe is forwarded node-to-node along the ring
            t = transfer(cursor, candidate, control_flits, _REQUEST, t, _INJECT_PROBE, item)
            probe_hops += 1
            cursor = candidate
            node = nodes[candidate]
            if not node.alive:
                # the hop died after the walk started but before the
                # ring was reconfigured: the probe gets no answer and
                # the walk remaps to the next live ring node
                continue
            t = node.mem_ctrl.occupy(t, lookup_lat)
            if candidate in exclude:
                continue
            if node.am.injection_probe(item) is not _NO_SLOT:
                acceptor = candidate
                break
        if acceptor is None:
            raise InjectionFailed(
                f"item {item} from node {src}: no AM can accept the injection"
            )

        # victim node replies, then the data is sent from the source
        service_lat = p._remote_service_lat
        item_bytes = p._item_bytes
        src_node = nodes[src]
        t = transfer(acceptor, src, control_flits, _REPLY, t, _INJECT_ACCEPT, item)
        t = src_node.mem_ctrl.occupy(t, service_lat)
        t = transfer(
            src, acceptor, p._data_flits, _REPLY, t, _INJECT_DATA, item, item_bytes
        )
        self._install(acceptor, item, install_state, t)
        # the ack leaves 5 cycles after the item is received; copying the
        # item into memory happens after the ack is sent (Section 4.2.2)
        t_ack = transfer(
            acceptor, src, control_flits, _REPLY, t + self._inject_ack_lat, _INJECT_ACK, item
        )
        nodes[acceptor].mem_ctrl.occupy(t, service_lat)

        if drop_local:
            src_node.am.set_state(item, _INVALID)
        stats = src_node.stats
        stats.injections[cause] += 1
        stats.bytes_injected += item_bytes
        stats.injection_probe_hops += probe_hops
        p.after_injection(item, src, acceptor, install_state, t_ack)
        return InjectionResult(acceptor, t_ack, t, probe_hops)

    def install_at(self, node_id: int, item: int, state: ItemState, now: int) -> None:
        """Install a copy directly at ``node_id``, with the same room
        making discipline as an injection.  Restore paths use this when
        the data arrives from outside the AM fabric (e.g. a
        disaggregated checkpoint pool); the caller owns the directory
        bookkeeping."""
        self._install(node_id, item, state, now)

    # -- internals ------------------------------------------------------

    def _install(self, node_id: int, item: int, state: ItemState, now: int) -> None:
        """Make room (per the probe's promise) and install the copy."""
        p = self.protocol
        am = p.nodes[node_id].am
        page = am.page_of(item)
        if not am.has_page(page):
            if am.free_ways(page) == 0:
                victim = am.evictable_page(page)
                if victim is None:
                    raise InjectionFailed(
                        f"node {node_id} accepted item {item} but has no room"
                    )
                p.drop_page(node_id, victim, now)
            am.allocate_page(page)
            p.registry.on_page_allocated(page, node_id)
        else:
            old = am.state(item)
            if old is state:
                # duplicate INJECT_DATA delivery: the copy is already
                # installed; re-acking without mutation keeps the
                # effect exactly-once
                return
            if old not in _REPLACEABLE:
                raise InjectionFailed(
                    f"node {node_id} holds item {item} in {old.name}; "
                    "probe should have refused"
                )
            if old is _SHARED:
                p.on_shared_copy_dropped(node_id, item, now)
        am.set_state(item, state)
