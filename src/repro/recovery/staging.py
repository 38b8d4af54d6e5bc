"""Shared skeleton for stage-then-commit recovery backends.

Both non-ECP strategies (``pooled``, ``recompute``) keep their recovery
data *outside* the attraction memories: establishment stages an entry
per owned item, commit atomically (per node) folds the staged entries
into the committed image, and recovery restores every committed item
into a live AM and republishes the localization pointers.  Only the
cost model and the restore source differ, so the mechanics live here.

The restore path mirrors the injection install discipline
(:meth:`repro.coherence.injection.Injector.install_at`): the target AM
is probed along the ring from the item's last owner, pages are
allocated/evicted under the same rules as any injection, and the
directory pointer plus a fresh (sharer-free, partner-free) entry are
published so the DIR-POINTER/DIR-SHARERS invariants hold immediately
after restoration.
"""

from __future__ import annotations

from typing import Callable, Generator

from repro.checkpoint.establish import flush_dirty_lines, scan_cost_cycles
from repro.checkpoint.recovery import UnrecoverableFailure
from repro.memory.attraction_memory import InjectionSlot
from repro.memory.states import ItemState
from repro.recovery.base import RecoveryStrategy


class StagedRestoreStrategy(RecoveryStrategy):
    """Stage owned items at create, commit per node, restore on recovery."""

    #: State a restored item is installed in.  Exclusive: the restored
    #: copy is the single serving, owner-capable copy of the item.
    restore_state = ItemState.EXCLUSIVE
    #: Pool-backed failure domains survive down to a live pair.
    min_live_nodes = 2

    def __init__(self, machine):
        super().__init__(machine)
        #: item -> owner staged by the in-flight establishment.
        self._staged: dict[int, int] = {}
        #: item -> owner of the committed (restorable) image.
        self._committed: dict[int, int] = {}

    # -- establishment -------------------------------------------------

    def begin_establishment(self) -> None:
        self._staged.clear()

    def node_create_phase(
        self, node_id: int, should_abort: Callable[[], bool] | None = None
    ) -> Generator[int, None, None]:
        protocol = self.machine.protocol
        node = protocol.nodes[node_id]
        stats = node.stats
        # the staged image must reflect the modified cache lines
        yield from flush_dirty_lines(
            node, self.machine.engine, protocol.cfg.latency.cache_writeback_line
        )
        for item in sorted(node.am.owned_items()):
            if should_abort is not None and should_abort():
                return
            self._staged[item] = node_id
            cost = self._stage_item(item, node_id, stats)
            if cost:
                yield cost

    def _stage_item(self, item: int, node_id: int, stats) -> int:
        """Record one staged item's statistics; returns its cycle cost."""
        raise NotImplementedError

    def commit_node(self, node_id: int) -> int:
        for item, owner in list(self._staged.items()):
            if owner == node_id:
                self._committed[item] = owner
                del self._staged[item]
        # the committed image lives outside the AMs: no state-memory
        # scan, just the recovery-point counter bump
        return self.machine.protocol.cfg.latency.commit_page_test

    def abort_node(self, node_id: int) -> None:
        self._staged = {
            item: owner
            for item, owner in self._staged.items()
            if owner != node_id
        }

    # -- recovery ------------------------------------------------------

    def scan_node(self, node_id: int) -> int:
        # No Shared-CK/Inv-CK states exist under a staged strategy, so
        # the ECP scan degenerates to exactly what is needed: invalidate
        # every (possibly corrupt) copy and flush the processor cache.
        protocol = self.machine.protocol
        protocol.recovery_scan_node(node_id)
        return scan_cost_cycles(protocol, node_id)

    def reconfigure(self) -> Generator[int, None, int]:
        protocol = self.machine.protocol
        directory = protocol.directory
        directory.clear_all()
        restored = 0
        for item, owner in sorted(self._committed.items()):
            target = self._restore_target(item, owner)
            if target is None:
                raise UnrecoverableFailure.fatal(
                    f"item {item}: no live attraction memory can hold the "
                    f"copy restored by the {self.name} strategy"
                )
            protocol.injector.install_at(
                target, item, self.restore_state, self.machine.engine.now
            )
            self._publish(item, target)
            protocol.nodes[target].stats.reconfig_items_recreated += 1
            restored += 1
            cost = self._restore_cost(item)
            if cost:
                yield cost
        cost = self._after_restore_cost(restored)
        if cost:
            yield cost
        # the pointer partitions of dead nodes are rehosted with the
        # rebuilt directory: a None lookup is authoritative again
        for node in protocol.nodes:
            if not node.alive:
                node.pointers_rehosted = True
        return restored

    def _restore_target(self, item: int, owner: int) -> int | None:
        """First live AM (ring order from the last owner) with room."""
        protocol = self.machine.protocol
        for candidate in protocol.ring.walk_from(owner, include_start=True):
            if protocol.nodes[candidate].am.injection_probe(item) is not (
                InjectionSlot.NONE
            ):
                return candidate
        return None

    def _publish(self, item: int, target: int) -> None:
        """Republish the localization pointer for a restored item."""
        directory = self.machine.protocol.directory
        directory.set_serving_node(item, target)
        entry = directory.entry(target, item)
        entry.sharers.clear()
        entry.partner = None

    def _restore_cost(self, item: int) -> int:
        """Cycles charged per restored item."""
        raise NotImplementedError

    def _after_restore_cost(self, restored: int) -> int:
        """Cycles charged once after all items are restored."""
        return 0

    # -- elastic membership --------------------------------------------

    def join_node(self, node_id: int) -> Generator[int, None, None]:
        """Staged-strategy admission: reclaim the pointer partition,
        then run the backend's own sync (pool registration, tag-table
        copy).  The committed image lives outside the AMs, so a join
        never moves recovery data."""
        cost = self._claim_pointer_partition(node_id)
        if cost:
            yield cost
        cost = self._join_sync_cost(node_id)
        if cost:
            yield cost

    def _join_sync_cost(self, node_id: int) -> int:
        """Backend-specific catch-up cycles for one admission."""
        raise NotImplementedError

    # -- model checking ------------------------------------------------

    def snapshot(self) -> tuple:
        return (
            tuple(sorted(self._staged.items())),
            tuple(sorted(self._committed.items())),
        )
