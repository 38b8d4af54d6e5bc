"""The Extended Coherence Protocol (Section 3).

Extends the standard protocol with transparent recovery-data
management:

- ``Shared-CK1`` serves read misses like a Master-Shared copy and is
  the only CK copy allowed to grant exclusive rights (Section 4.1);
- a write on an item whose recovery copies are still ``Shared-CK``
  turns both into ``Inv-CK`` and invalidates the plain Shared copies;
- any processor access that collides with a *local* recovery copy first
  injects that copy to another AM and then proceeds as a miss — these
  are the new injections of Table 1:

  ============  =================  =======================
  cause         local copy state   action
  ============  =================  =======================
  replacement   Shared-CK          injection
  replacement   Inv-CK             injection
  read access   Inv-CK             injection + read miss
  write access  Inv-CK             injection + write miss
  write access  Shared-CK          injection + write miss
  ============  =================  =======================

The replacement rows are handled by the shared replacement machinery in
:mod:`repro.coherence.standard` (via ``_replacement_cause``); this
module adds the access rows and the Shared-CK1 write-service path.
Recovery-point establishment and restoration live in
:mod:`repro.checkpoint` and drive the protocol through
:meth:`ExtendedProtocol.mark_precommit_local`,
:meth:`ExtendedProtocol.mark_precommit_replica` and the commit/recovery
scans.
"""

from __future__ import annotations

from repro.coherence.directory import DirectoryEntry
from repro.coherence.injection import InjectionCause
from repro.coherence.standard import (
    _EXCLUSIVE, _INVALID, _MASTER_SHARED, _OWNER_CAPABLE, _REPLY, _REQUEST,
    _SHARED_CK1, _SHARED_CK2, ProtocolError, StandardProtocol,
)
from repro.memory.states import ItemState
from repro.network.message import MessageKind
from repro.network.topology import Subnet

_INV_CK = (ItemState.INV_CK1, ItemState.INV_CK2)
_SHARED_CK = (_SHARED_CK1, _SHARED_CK2)
# the establishment hooks run once per modified item at every recovery
# point: a module global is cheaper to read than an enum class attribute
_PRE_COMMIT1 = ItemState.PRE_COMMIT1
_PRECOMMIT_MARK = MessageKind.PRECOMMIT_MARK
_PRECOMMIT_ACK = MessageKind.PRECOMMIT_ACK
_READ_INV_CK = InjectionCause.READ_INV_CK
_WRITE_INV_CK = InjectionCause.WRITE_INV_CK
_WRITE_SHARED_CK = InjectionCause.WRITE_SHARED_CK


class ExtendedProtocol(StandardProtocol):
    """Standard protocol + recovery-data states (the paper's ECP)."""

    name = "ecp"

    #: Serving-copy states that answer a read or write miss: Shared-CK1
    #: serves like a Master-Shared copy (Section 4.1).
    _serving_states = _OWNER_CAPABLE

    # -- read path ------------------------------------------------------

    def _pre_miss_read(self, node_id: int, item: int, state: ItemState, now: int) -> int:
        """Read access on a local Inv-CK copy: the copy must first be
        transferred to another node (Table 1, row 3)."""
        if state in _INV_CK:
            return self.injector.inject(node_id, item, state, now, _READ_INV_CK).complete
        return now

    # -- write path ------------------------------------------------------

    def _pre_miss_write(self, node_id: int, item: int, state: ItemState, now: int) -> int:
        """Write access on a local recovery copy: inject it, then miss
        (Table 1, rows 4 and 5)."""
        if state in _INV_CK:
            cause = _WRITE_INV_CK
        elif state in _SHARED_CK:
            cause = _WRITE_SHARED_CK
        else:
            return now
        return self.injector.inject(node_id, item, state, now, cause).complete

    def _degrade_ck_pair(
        self,
        requester: int,
        serving: int,
        item: int,
        entry: DirectoryEntry,
        now: int,
        acks_done: int,
    ) -> int:
        """Write service at a Shared-CK1 holder is Master-Shared service
        plus the invalidation of the Shared-CK2 partner (Section 4.1);
        returns the latest invalidation ack."""
        partner = entry.partner
        if partner is None:
            raise ProtocolError(
                f"Shared-CK1 copy of item {item} at node {serving} has no partner"
            )
        p_node = self.nodes[partner]
        if p_node.alive:
            t_inv = self.fabric.control(
                serving, partner, Subnet.REQUEST, now, MessageKind.INVALIDATE, item
            )
            t_inv = p_node.mem_ctrl.occupy(t_inv, self.cfg.latency.pointer_lookup)
            self.deliver_partner_invalidate(partner, item)
            t_ack = self.fabric.control(
                partner, requester, Subnet.REPLY, t_inv, MessageKind.INVALIDATE_ACK, item
            )
            acks_done = max(acks_done, t_ack)
        return acks_done

    def deliver_partner_invalidate(self, partner: int, item: int) -> bool:
        """Receiver-side INVALIDATE at the CK2 partner: the recovery
        copy degrades from Shared-CK2 to Inv-CK2 (Section 4.1).

        Idempotent: a retransmitted INVALIDATE finds Inv-CK2 and re-acks
        without touching state.  Returns whether state changed."""
        p_node = self.nodes[partner]
        state = p_node.am.state(item)
        if state is ItemState.INV_CK2:
            return False
        if state is not ItemState.SHARED_CK2:
            raise ProtocolError(
                f"partner of item {item} at node {partner} is "
                f"{state.name}, expected SHARED_CK2"
            )
        p_node.am.set_state(item, ItemState.INV_CK2)
        self._invalidate_cached_item(p_node, item)
        return True

    # ==================================================================
    # recovery-point establishment hooks (driven by repro.checkpoint)
    # ==================================================================

    def mark_precommit_local(self, node_id: int, item: int) -> None:
        """Create phase: turn an owned copy into the first Pre-Commit
        copy (Fig. 2, Exclusive/Master-Shared arms).

        Idempotent: a copy already in Pre-Commit1 (a retried create-scan
        step after a lost ack) is left alone."""
        am = self.nodes[node_id].am
        state = am.state(item)
        if state is _PRE_COMMIT1:
            return
        if state is not _EXCLUSIVE and state is not _MASTER_SHARED:
            raise ProtocolError(
                f"create phase visited item {item} on node {node_id} "
                f"in state {state.name}"
            )
        am.set_state(item, _PRE_COMMIT1)

    def deliver_precommit_mark(self, target: int, item: int) -> bool:
        """Receiver-side PRECOMMIT_MARK handler: promote a Shared
        replica to Pre-Commit2.

        Idempotent: a duplicate finds Pre-Commit2 and re-acks without
        touching state.  Returns whether state changed."""
        target_node = self.nodes[target]
        state = target_node.am.state(item)
        if state is ItemState.PRE_COMMIT2:
            return False
        if state is not ItemState.SHARED:
            raise ProtocolError(
                f"replica promotion of item {item}: node {target} holds "
                f"{state.name}, expected SHARED"
            )
        target_node.am.set_state(item, ItemState.PRE_COMMIT2)
        return True

    def mark_precommit_replica(self, node_id: int, item: int, target: int, now: int) -> int:
        """Create phase, Master-Shared optimisation: promote an existing
        Shared replica to Pre-Commit2 with a control message instead of
        transferring the item (Section 3.3).  Returns the ack time."""
        transfer = self.fabric.transfer
        control_flits = self._control_flits
        t = transfer(node_id, target, control_flits, _REQUEST, now, _PRECOMMIT_MARK, item)
        t = self.nodes[target].mem_ctrl.occupy(t, self._pointer_lookup_lat)
        self.deliver_precommit_mark(target, item)
        entry = self.directory.entry(node_id, item)
        entry.sharers.discard(target)
        entry.partner = target
        return transfer(target, node_id, control_flits, _REPLY, t, _PRECOMMIT_ACK, item)

    def commit_node(self, node_id: int) -> tuple[int, int]:
        """Commit phase, local to ``node_id`` (Fig. 2): Pre-Commit
        copies become Shared-CK, old Inv-CK copies are discarded.

        Naturally idempotent: a retried COMMIT finds both scan groups
        empty and returns ``(0, 0)``.

        Returns ``(promoted, discarded)`` item-copy counts."""
        am = self.nodes[node_id].am
        state_of, set_state = am.state, am.set_state
        promoted = am.items_in_group("pre_commit")
        for item in promoted:
            set_state(
                item, _SHARED_CK1 if state_of(item) is _PRE_COMMIT1 else _SHARED_CK2
            )
        discarded = am.items_in_group("inv_ck")
        for item in discarded:
            set_state(item, _INVALID)
        return len(promoted), len(discarded)

    def abort_establishment_node(self, node_id: int) -> int:
        """Revert this node's Pre-Commit copies after an aborted create
        phase (no failure: the copies hold valid current data).

        ``Pre-Commit1`` returns to its owner state; ``Pre-Commit2``
        becomes a plain ``Shared`` copy registered in the sharing list.
        Returns the number of copies reverted.
        """
        node = self.nodes[node_id]
        reverted = 0
        for item in node.am.items_in_group("pre_commit"):
            state = node.am.state(item)
            if state is ItemState.PRE_COMMIT1:
                entry = self.directory.entry(node_id, item)
                entry.partner = None
                node.am.set_state(
                    item,
                    ItemState.MASTER_SHARED if entry.sharers else ItemState.EXCLUSIVE,
                )
            else:
                serving = self.directory.serving_node(item)
                if serving is not None:
                    entry = self.directory.entry(serving, item)
                    entry.sharers.add(node_id)
                    if entry.partner == node_id:
                        entry.partner = None
                    # an owner that already reverted to Exclusive gains
                    # a sharer again
                    s_node = self.nodes[serving]
                    if s_node.am.state(item) is ItemState.EXCLUSIVE:
                        s_node.am.set_state(item, ItemState.MASTER_SHARED)
                node.am.set_state(item, ItemState.SHARED)
            reverted += 1
        return reverted

    def recovery_scan_node(self, node_id: int) -> tuple[int, int]:
        """Restoration scan, local to ``node_id`` (Section 3.4):
        invalidate all current and Pre-Commit copies, restore Inv-CK
        copies to Shared-CK.

        Returns ``(invalidated, restored)`` counts."""
        node = self.nodes[node_id]
        invalidated = 0
        for group in ("shared", "owned", "pre_commit"):
            for item in node.am.items_in_group(group):
                node.am.set_state(item, ItemState.INVALID)
                invalidated += 1
        restored = 0
        for item in node.am.items_in_group("inv_ck"):
            state = node.am.state(item)
            node.am.set_state(
                item,
                ItemState.SHARED_CK1
                if state is ItemState.INV_CK1
                else ItemState.SHARED_CK2,
            )
            restored += 1
        # caches are volatile and inconsistent with the restored state
        node.cache.invalidate_all()
        return invalidated, restored
