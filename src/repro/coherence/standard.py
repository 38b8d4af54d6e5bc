"""The baseline COMA-F-like coherence protocol.

Directory-based write-invalidate with four stable states
(``Invalid``/``Shared``/``Master-Shared``/``Exclusive``), localization
pointers at static home nodes, directory entries at the current owner,
and master-copy injection on replacement so the last copy of an item is
never lost (Section 2.2).

Transactions are *analytic* (DESIGN.md section 3): each call computes
its completion time from the calibrated latency components, charging
per-link and per-memory-controller contention, and applies all state
changes atomically at call time.  The state machine is exact; timing is
the approximation.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING

from repro.coherence.directory import Directory, DirectoryEntry
from repro.coherence.injection import InjectionCause, InjectionEngine
from repro.config import ArchConfig
from repro.memory.attraction_memory import CapacityError
from repro.memory.states import _READABLE, _REPLACEABLE, _SHARED_CK, ItemState
from repro.network.fabric import MeshFabric
from repro.network.message import MessageKind
from repro.network.ring import LogicalRing
from repro.network.topology import Subnet
from repro.memory.pages import PageRegistry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.node.node import Node

# enum members the miss handlers read on every transaction: a module
# global is cheaper to read than an enum class attribute
_REQUEST = Subnet.REQUEST
_REPLY = Subnet.REPLY
_INVALID = ItemState.INVALID
_SHARED = ItemState.SHARED
_MASTER_SHARED = ItemState.MASTER_SHARED
_EXCLUSIVE = ItemState.EXCLUSIVE
_SHARED_CK1 = ItemState.SHARED_CK1
_SHARED_CK2 = ItemState.SHARED_CK2
_INV_CK1 = ItemState.INV_CK1
_PRE_COMMIT2 = ItemState.PRE_COMMIT2
_READ_REQ = MessageKind.READ_REQ
_WRITE_REQ = MessageKind.WRITE_REQ
_DATA_REPLY = MessageKind.DATA_REPLY
_OWNERSHIP_REPLY = MessageKind.OWNERSHIP_REPLY
_POINTER_LOOKUP = MessageKind.POINTER_LOOKUP
_POINTER_UPDATE = MessageKind.POINTER_UPDATE
_INVALIDATE = MessageKind.INVALIDATE
_INVALIDATE_ACK = MessageKind.INVALIDATE_ACK
#: States of a serving copy: the owner states.
_SERVING = frozenset({_EXCLUSIVE, _MASTER_SHARED})
#: Owner-capable states: an injected copy in one carries the pointer.
_OWNER_CAPABLE = frozenset({_EXCLUSIVE, _MASTER_SHARED, _SHARED_CK1})


class ProtocolError(RuntimeError):
    """A coherence invariant was violated — always a bug, never a
    recoverable condition."""


class NodeUnavailable(RuntimeError):
    """A transaction reached a failed node before system-wide failure
    detection: the request times out, which *is* the detection event.
    The issuing processor reports the failure and stalls until recovery
    completes."""

    def __init__(self, node_id: int, item: int):
        super().__init__(f"node {node_id} is down (item {item})")
        self.node_id = node_id
        self.item = item


class StandardProtocol:
    """Baseline protocol; the ECP subclasses and extends it."""

    name = "standard"

    #: States in which the copy a pointer names answers a read or write
    #: miss (the ECP adds Shared-CK1).
    _serving_states = _SERVING

    def __init__(
        self,
        cfg: ArchConfig,
        fabric: MeshFabric,
        ring: LogicalRing,
        nodes: list[Node],
        directory: Directory,
        registry: PageRegistry,
        rng: random.Random | None = None,
    ):
        self.cfg = cfg
        self.fabric = fabric
        self.ring = ring
        self.nodes = nodes
        self.directory = directory
        self.registry = registry
        self.rng = rng or random.Random(cfg.seed)
        self.injector = InjectionEngine(self)
        # read()/write() run once per simulated reference; hoist the
        # constants they would otherwise chase through cfg.latency
        lat = cfg.latency
        self._cache_hit_lat = lat.cache_hit
        self._am_fill_lat = lat.local_am_fill
        self._item_bytes = cfg.am.item_bytes
        self._items_per_page = cfg.am.items_per_page
        # ... and the ones of the remote miss handlers, including the
        # flit counts the fabric's control()/data() wrappers compute
        self._req_launch = lat.req_launch
        self._remote_service_lat = lat.remote_am_service
        self._pointer_lookup_lat = lat.pointer_lookup
        self._fill_lat = lat.fill
        # ... and those of the cache coupling below every fill
        self._writeback_lat = lat.cache_writeback_line
        wire = fabric.latency
        self._control_flits = wire.control_flits
        self._data_flits = wire.control_flits + wire.item_flits(cfg.item_bytes)

    # ==================================================================
    # public operations
    # ==================================================================

    def read(self, node_id: int, addr: int, now: int) -> int:
        """Processor read; returns its completion time."""
        node = self.nodes[node_id]
        stats = node.stats
        stats.refs += 1
        stats.reads += 1
        if node.cache.read_probe(addr):
            return now + self._cache_hit_lat
        stats.am_read_accesses += 1
        item = addr // self._item_bytes
        state = node.am.state(item)
        # the predicate sets themselves: no enum property call per read
        if state in _READABLE:
            if state in _SHARED_CK:
                stats.sharedck_reads += 1
            t = node.mem_ctrl.occupy(now, self._am_fill_lat)
            self._cache_fill(node, addr, dirty=False, now=t)
            return t
        now = self._pre_miss_read(node_id, item, state, now)
        stats.am_read_misses += 1
        return self._remote_read(node_id, item, addr, now)

    def write(self, node_id: int, addr: int, now: int) -> int:
        """Processor write; returns its completion time."""
        node = self.nodes[node_id]
        stats = node.stats
        stats.refs += 1
        stats.writes += 1
        if node.cache.write_probe(addr):
            return now + self._cache_hit_lat
        item = addr // self._item_bytes
        stats.am_write_accesses += 1
        state = node.am.state(item)
        if state is _EXCLUSIVE:
            t = node.mem_ctrl.occupy(now, self._am_fill_lat)
            self._cache_fill(node, addr, dirty=True, now=t)
            return t
        if state is _MASTER_SHARED:
            t = node.mem_ctrl.occupy(now, self._am_fill_lat)
            t = self._invalidate_sharers(node_id, item, ack_to=node_id, now=t)
            node.am.set_state(item, _EXCLUSIVE)
            self._cache_fill(node, addr, dirty=True, now=t)
            return t
        now = self._pre_miss_write(node_id, item, state, now)
        stats.am_write_misses += 1
        # an ECP pre-miss injection leaves the copy Invalid, never Shared
        return self._remote_write(node_id, item, addr, state is _SHARED, now)

    # ==================================================================
    # hooks the ECP overrides
    # ==================================================================

    def _pre_miss_read(self, node_id: int, item: int, state: ItemState, now: int) -> int:
        """Deal with a local copy (in ``state``) that blocks a read miss
        (ECP only)."""
        return now

    def _pre_miss_write(self, node_id: int, item: int, state: ItemState, now: int) -> int:
        """Deal with a local copy (in ``state``) that blocks a write
        miss (ECP only)."""
        return now

    def _degrade_ck_pair(
        self,
        requester: int,
        serving: int,
        item: int,
        entry: DirectoryEntry,
        now: int,
        acks_done: int,
    ) -> int:
        """Write service at a Shared-CK1 holder (ECP only: the standard
        protocol never serves from Shared-CK1)."""
        raise ProtocolError(f"item {item}: no recovery pairs in the standard protocol")

    def _check_home_reachable(self, item: int) -> None:
        """A ``None`` localization pointer is only trustworthy if the
        item's home node can actually answer.  While the home is down
        and its pointer partition has not been rehosted by a recovery,
        the lookup times out — treating the miss as a cold miss here
        would mint a second owner for an item whose pointer was merely
        lost with the failed node."""
        home = self.directory.home_of(item)
        home_node = self.nodes[home]
        if not home_node.alive and not home_node.pointers_rehosted:
            raise NodeUnavailable(home, item)

    # ==================================================================
    # misses
    # ==================================================================

    def _remote_read(self, node_id: int, item: int, addr: int, now: int) -> int:
        """A read miss: request via the pointer home, service at the
        serving node, data reply, install as Shared, cache fill."""
        nodes = self.nodes
        node = nodes[node_id]
        t = node.mem_ctrl.occupy(now, self._am_fill_lat) + self._req_launch
        directory = self.directory
        serving = directory.serving_node(item)
        if serving is None:
            self._check_home_reachable(item)
            return self._cold_miss(node_id, item, addr, t, write=False)
        s_node = nodes[serving]
        if not s_node.alive:
            raise NodeUnavailable(serving, item)
        # requester -> pointer home -> serving node
        transfer = self.fabric.transfer
        control_flits = self._control_flits
        home = directory.home_of(item)
        if not nodes[home].alive:
            home = self.ring.successor(home)
        if home == serving:
            # the pointer lookup overlaps the directory access that is
            # already part of remote_am_service (Table 2 calibration)
            t = transfer(node_id, serving, control_flits, _REQUEST, t, _READ_REQ, item)
        else:
            t = transfer(node_id, home, control_flits, _REQUEST, t, _READ_REQ, item)
            t = nodes[home].mem_ctrl.occupy(t, self._pointer_lookup_lat)
            t = transfer(home, serving, control_flits, _REQUEST, t, _READ_REQ, item)
        # owner side
        t = s_node.mem_ctrl.occupy(t, self._remote_service_lat)
        s_am = s_node.am
        state = s_am.state(item)
        if state is _EXCLUSIVE:
            s_am.set_state(item, _MASTER_SHARED)
        elif state not in self._serving_states:
            raise ProtocolError(
                f"read for item {item} routed to node {serving} "
                f"in non-serving state {state.name}"
            )
        directory.entry(serving, item).sharers.add(node_id)
        t = transfer(
            serving, node_id, self._data_flits, _REPLY, t,
            _DATA_REPLY, item, self._item_bytes,
        )
        # requester side
        am = node.am
        if am.has_page(item // self._items_per_page):
            am.set_state(item, _SHARED)
        else:
            t = self._install_item(node_id, item, _SHARED, t)
        t += self._fill_lat
        self._cache_fill(node, addr, dirty=False, now=t)
        return t

    def _remote_write(
        self, node_id: int, item: int, addr: int, had_shared_copy: bool, now: int
    ) -> int:
        """A write miss (or the ownership upgrade of a Shared copy):
        request via the pointer home, then the owner invalidates every
        other copy and hands over data and ownership."""
        nodes = self.nodes
        node = nodes[node_id]
        t = node.mem_ctrl.occupy(now, self._am_fill_lat) + self._req_launch
        directory = self.directory
        serving = directory.serving_node(item)
        if serving is None:
            self._check_home_reachable(item)
            return self._cold_miss(node_id, item, addr, t, write=True)
        s_node = nodes[serving]
        if not s_node.alive:
            raise NodeUnavailable(serving, item)
        # requester -> pointer home -> serving node, as for a read
        transfer = self.fabric.transfer
        control_flits = self._control_flits
        home = directory.home_of(item)
        if not nodes[home].alive:
            home = self.ring.successor(home)
        if home == serving:
            t = transfer(node_id, serving, control_flits, _REQUEST, t, _WRITE_REQ, item)
        else:
            t = transfer(node_id, home, control_flits, _REQUEST, t, _WRITE_REQ, item)
            t = nodes[home].mem_ctrl.occupy(t, self._pointer_lookup_lat)
            t = transfer(home, serving, control_flits, _REQUEST, t, _WRITE_REQ, item)
        # owner side
        t = s_node.mem_ctrl.occupy(t, self._remote_service_lat)
        s_am = s_node.am
        state = s_am.state(item)
        if state not in self._serving_states:
            raise ProtocolError(
                f"write for item {item} routed to node {serving} "
                f"in non-owner state {state.name}"
            )
        entry = directory.entry(serving, item)
        acks_done = t
        if entry.sharers:
            acks_done = self._invalidate_sharers(
                serving, item, ack_to=node_id, now=t, skip={node_id}
            )
        if state is _SHARED_CK1:
            # the recovery pair degrades to Inv-CK (Section 4.1)
            acks_done = self._degrade_ck_pair(node_id, serving, item, entry, t, acks_done)
            s_am.set_state(item, _INV_CK1)
        else:
            # the master copy moves: the old owner drops its copy
            s_am.set_state(item, _INVALID)
        self._invalidate_cached_item(s_node, item)
        if had_shared_copy:
            # ownership-only reply; the requester's data is already valid
            data_done = transfer(
                serving, node_id, control_flits, _REPLY, t, _OWNERSHIP_REPLY, item
            )
        else:
            data_done = transfer(
                serving, node_id, self._data_flits, _REPLY, t,
                _OWNERSHIP_REPLY, item, self._item_bytes,
            )
        moved = directory.move_entry(item, serving, node_id)
        moved.sharers.clear()
        if state is _SHARED_CK1:
            moved.partner = None
        # the localization pointer follows (fire-and-forget)
        if home != serving:
            transfer(serving, home, control_flits, _REQUEST, t, _POINTER_UPDATE, item)
        directory.set_serving_node(item, node_id)
        t = max(acks_done, data_done)
        # requester side
        am = node.am
        if am.has_page(item // self._items_per_page):
            am.set_state(item, _EXCLUSIVE)
        else:
            t = self._install_item(node_id, item, _EXCLUSIVE, t)
        t += self._fill_lat
        self._cache_fill(node, addr, dirty=True, now=t)
        return t

    def _cold_miss(self, node_id: int, item: int, addr: int, now: int, write: bool) -> int:
        """First touch machine-wide: the toucher materialises the item
        (conceptually zero-filled) and becomes its master."""
        node = self.nodes[node_id]
        lat = self.cfg.latency
        home = self.pointer_host(self.directory.home_of(item))
        t = self.fabric.control(
            node_id, home, _REQUEST, now, _POINTER_LOOKUP, item
        )
        t = self.nodes[home].mem_ctrl.occupy(t, lat.pointer_lookup)
        t = self.fabric.control(
            home, node_id, _REPLY, t, _POINTER_UPDATE, item
        )
        self.directory.set_serving_node(item, node_id)
        t = self._install_item(node_id, item, _EXCLUSIVE, t)
        t += lat.fill
        self._cache_fill(node, addr, dirty=write, now=t)
        return t

    # ==================================================================
    # shared machinery
    # ==================================================================

    def pointer_host(self, home: int) -> int:
        """Physical host of a pointer partition: the home node, or its
        ring successor if the home is (permanently) down."""
        if self.nodes[home].alive:
            return home
        return self.ring.successor(home)

    def deliver_invalidate(self, node_id: int, item: int) -> bool:
        """Receiver-side INVALIDATE handler: drop the local copy.

        Idempotent: a retransmitted INVALIDATE finds the copy already
        gone and simply acks again, so at-least-once delivery by the
        transport yields exactly-once state effect.  Returns whether
        the delivery changed state."""
        node = self.nodes[node_id]
        if node.am.state(item) is _INVALID:
            return False
        node.am.set_state(item, _INVALID)
        self._invalidate_cached_item(node, item)
        return True

    def _invalidate_sharers(
        self,
        serving: int,
        item: int,
        ack_to: int,
        now: int,
        skip: set[int] | frozenset[int] = frozenset(),
    ) -> int:
        """Invalidate every Shared copy; acks converge on ``ack_to``.
        Returns the arrival time of the last ack (or ``now``)."""
        entry = self.directory.entry(serving, item)
        acks_done = now
        transfer = self.fabric.transfer
        control_flits = self._control_flits
        for sharer in sorted(entry.sharers):
            if sharer in skip:
                continue
            sh_node = self.nodes[sharer]
            if not sh_node.alive:
                continue
            t_inv = transfer(serving, sharer, control_flits, _REQUEST, now, _INVALIDATE, item)
            t_inv = sh_node.mem_ctrl.occupy(t_inv, self._pointer_lookup_lat)
            self.deliver_invalidate(sharer, item)
            t_ack = transfer(
                sharer, ack_to, control_flits, _REPLY, t_inv, _INVALIDATE_ACK, item
            )
            if t_ack > acks_done:
                acks_done = t_ack
        entry.sharers.clear()
        return acks_done

    def _move_pointer(self, item: int, old_serving: int, new_serving: int, now: int) -> None:
        """Update the localization pointer (fire-and-forget message)."""
        home = self.pointer_host(self.directory.home_of(item))
        if home != old_serving:
            self.fabric.transfer(
                old_serving, home, self._control_flits, _REQUEST, now, _POINTER_UPDATE, item
            )
        self.directory.set_serving_node(item, new_serving)

    def _install_item(self, node_id: int, item: int, state: ItemState, now: int) -> int:
        """Install a copy at the requester, allocating (and if necessary
        making room for) its page.  Returns the time installation is
        done."""
        node = self.nodes[node_id]
        page = node.am.page_of(item)
        t = now
        if not node.am.has_page(page):
            if node.am.free_ways(page) == 0:
                t = self._make_room(node_id, page, t)
            node.am.allocate_page(page)
            self.registry.on_page_allocated(page, node_id)
            t = node.mem_ctrl.occupy(t, self.cfg.latency.local_am_fill)
        node.am.set_state(item, state)
        return t

    def _make_room(self, node_id: int, page: int, now: int) -> int:
        """Free a frame in ``page``'s set, injecting precious items of
        the victim page if no fully-replaceable page exists."""
        node = self.nodes[node_id]
        victim = node.am.evictable_page(page)
        if victim is not None:
            self.drop_page(node_id, victim, now)
            return now
        victim, precious = self._pick_eviction_victim(node_id, page)
        t = now
        for victim_item, state in precious:
            cause = self._replacement_cause(state)
            result = self.injector.inject(
                node_id, victim_item, state, t, cause, drop_local=True
            )
            t = result.complete
        self.drop_page(node_id, victim, t)
        return t

    def _pick_eviction_victim(
        self, node_id: int, page: int
    ) -> tuple[int, list[tuple[int, ItemState]]]:
        """Victim page of the set with the fewest precious items."""
        node = self.nodes[node_id]
        set_idx = node.am.set_of_page(page)
        best_page: int | None = None
        best_precious: list[tuple[int, ItemState]] = []
        for candidate in list(node.am.pages()):
            if node.am.set_of_page(candidate) != set_idx:
                continue
            precious = [
                (it, st)
                for it, st in node.am.page_items(candidate)
                if not st.is_replaceable
            ]
            if best_page is None or len(precious) < len(best_precious):
                best_page, best_precious = candidate, precious
        if best_page is None:
            raise CapacityError(f"node {node_id}: no page to evict in set {set_idx}")
        return best_page, best_precious

    @staticmethod
    def _replacement_cause(state: ItemState) -> InjectionCause:
        if state in (ItemState.EXCLUSIVE, ItemState.MASTER_SHARED):
            return InjectionCause.REPLACEMENT_MASTER
        if state.is_checkpoint_readable:
            return InjectionCause.REPLACEMENT_SHARED_CK
        if state in (ItemState.INV_CK1, ItemState.INV_CK2):
            return InjectionCause.REPLACEMENT_INV_CK
        raise ProtocolError(f"cannot replace an item in state {state.name}")

    def drop_page(self, node_id: int, page: int, now: int) -> None:
        """Drop a fully-replaceable page frame, pruning sharing lists
        for the Shared copies it held."""
        node = self.nodes[node_id]
        for item, state in node.am.deallocate_page(page):
            if state is _SHARED:
                self.on_shared_copy_dropped(node_id, item, now)
            elif state not in _REPLACEABLE:
                raise ProtocolError(
                    f"drop_page lost a precious copy of item {item} ({state.name})"
                )
            self._invalidate_cached_item(node, item)
        self.registry.on_page_dropped(page, node_id)

    def on_shared_copy_dropped(self, node_id: int, item: int, now: int) -> None:
        """A Shared copy was silently replaced; tell the serving node to
        prune its sharing list (fire-and-forget)."""
        serving = self.directory.serving_node(item)
        if serving is None or not self.nodes[serving].alive:
            return
        entry = self.directory.peek_entry(serving, item)
        if entry is not None:
            entry.sharers.discard(node_id)
        self.fabric.control(
            node_id, serving, Subnet.REQUEST, now, MessageKind.SHARER_DROP, item
        )

    def after_injection(
        self, item: int, src: int, acceptor: int, state: ItemState, now: int
    ) -> None:
        """Post-injection bookkeeping: keep pointers/entries pointing at
        owner-capable copies when they move."""
        directory = self.directory
        # a create-phase replica (Pre-Commit2) is the common case
        if state is _PRE_COMMIT2 or state is _SHARED_CK2:
            serving = directory.serving_node(item)
            if serving is not None:
                entry = directory.peek_entry(serving, item)
                if entry is not None and entry.partner == src:
                    entry.partner = acceptor
                    self.fabric.transfer(
                        src, serving, self._control_flits, _REQUEST, now, _POINTER_UPDATE, item
                    )
        elif state in _OWNER_CAPABLE:
            if directory.serving_node(item) == src:
                directory.move_entry(item, src, acceptor)
                self._move_pointer(item, src, acceptor, now)

    # ==================================================================
    # cache coupling
    # ==================================================================

    def _cache_fill(self, node: Node, addr: int, dirty: bool, now: int) -> None:
        writebacks = node.cache.fill(addr, dirty=dirty)
        if writebacks:
            # dirty victims of a sector eviction go back to the local AM
            node.mem_ctrl.occupy(now, self._writeback_lat * len(writebacks))

    def _invalidate_cached_item(self, node: Node, item: int) -> None:
        item_bytes = self._item_bytes
        node.cache.invalidate_range(item * item_bytes, item_bytes)
