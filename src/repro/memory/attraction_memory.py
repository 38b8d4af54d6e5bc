"""The attraction memory (AM) of one node.

The AM is a 16-way set-associative cache of the shared address space
with *page*-grain allocation (16 KB frames) and *item*-grain coherence
(128 B).  When a node references an address whose page is absent, a
frame is allocated and filled one item at a time on demand — which is
why recovery copies often find room in already-allocated pages
(Section 4.2.4, footnote 4).

To avoid the sequential state-memory scans the paper warns about
(Section 4.1), the AM maintains the "supplementary information that
allows a node to identify a modified line during the injection time of
a previous line": per-state-group item indexes, the software analogue
of the paper's tree of modified lines.
"""

from __future__ import annotations

import enum
from typing import Iterable, Iterator

from repro.config import AMConfig
from repro.memory.states import ItemState


class CapacityError(RuntimeError):
    """Raised when a page cannot be allocated and no frame is evictable."""


class InjectionSlot(enum.Enum):
    """How an AM could accept an injected item (probe result)."""

    IN_PAGE = "in_page"          # page resident, item slot replaceable
    FREE_FRAME = "free_frame"    # set has a free way for the page
    EVICT_PAGE = "evict_page"    # a resident page of the set is droppable
    NONE = "none"                # cannot accept; forward along the ring


class _Frame:
    __slots__ = ("page_id", "states")

    def __init__(self, page_id: int, items_per_page: int):
        self.page_id = page_id
        self.states: list[ItemState] = [ItemState.INVALID] * items_per_page


#: Index groups maintained incrementally (see module docstring).
_GROUP_OF = {
    ItemState.INVALID: None,
    ItemState.SHARED: "shared",
    ItemState.MASTER_SHARED: "owned",
    ItemState.EXCLUSIVE: "owned",
    ItemState.SHARED_CK1: "shared_ck",
    ItemState.SHARED_CK2: "shared_ck",
    ItemState.INV_CK1: "inv_ck",
    ItemState.INV_CK2: "inv_ck",
    ItemState.PRE_COMMIT1: "pre_commit",
    ItemState.PRE_COMMIT2: "pre_commit",
}


#: Read by every state lookup of an absent page (a module global is
#: cheaper to read than an enum class attribute).
_INVALID = ItemState.INVALID


class AttractionMemory:
    """State memory of one node's AM."""

    def __init__(self, config: AMConfig, node_id: int = 0):
        self.config = config
        self.node_id = node_id
        self._items_per_page = config.items_per_page
        self._n_sets = config.n_sets
        self._assoc = config.associativity
        self._frames: dict[int, _Frame] = {}
        self._sets: list[set[int]] = [set() for _ in range(self._n_sets)]
        self._groups: dict[str, set[int]] = {
            "shared": set(),
            "owned": set(),
            "shared_ck": set(),
            "inv_ck": set(),
            "pre_commit": set(),
        }
        # state -> its group's index set (None for ungrouped states):
        # the memoized form of _GROUP_OF + self._groups used by the
        # set_state hot path (same-group transitions compare the set
        # objects by identity, which is exactly name equality above)
        self._group_set_of: dict[ItemState, set[int] | None] = {
            state: (self._groups[name] if name is not None else None)
            for state, name in _GROUP_OF.items()
        }
        # statistics
        self.pages_allocated_peak = 0
        self.pages_allocated_cumulative = 0
        self.page_evictions = 0

    # -- geometry -----------------------------------------------------------

    def page_of(self, item: int) -> int:
        return item // self._items_per_page

    def set_of_page(self, page: int) -> int:
        return page % self._n_sets

    def _offset(self, item: int) -> int:
        return item % self._items_per_page

    # -- state access -----------------------------------------------------

    def state(self, item: int) -> ItemState:
        per_page = self._items_per_page
        frame = self._frames.get(item // per_page)
        if frame is None:
            return _INVALID
        return frame.states[item % per_page]

    def has_page(self, page: int) -> bool:
        return page in self._frames

    def set_state(self, item: int, state: ItemState) -> None:
        """Set an item's state; its page must already be resident unless
        the new state is INVALID (which is then a no-op)."""
        per_page = self._items_per_page
        frame = self._frames.get(item // per_page)
        if frame is None:
            if state is _INVALID:
                return
            raise KeyError(
                f"node {self.node_id}: page {item // per_page} not resident "
                f"for item {item}"
            )
        offset = item % per_page
        old = frame.states[offset]
        if old is state:
            return
        old_set = self._group_set_of[old]
        new_set = self._group_set_of[state]
        if old_set is not new_set:
            if old_set is not None:
                old_set.discard(item)
            if new_set is not None:
                new_set.add(item)
        frame.states[offset] = state

    # -- page allocation ------------------------------------------------------

    def free_ways(self, page: int) -> int:
        return self._assoc - len(self._sets[self.set_of_page(page)])

    def allocate_page(self, page: int) -> bool:
        """Allocate a frame for ``page``; True if newly allocated.

        Raises :class:`CapacityError` when the set is full — the caller
        must first evict (see :meth:`evictable_page` /
        :meth:`deallocate_page`, and the protocol layer for the
        injections that eviction of precious items requires).
        """
        if page in self._frames:
            return False
        set_idx = self.set_of_page(page)
        if len(self._sets[set_idx]) >= self._assoc:
            raise CapacityError(
                f"node {self.node_id}: AM set {set_idx} full for page {page}"
            )
        self._frames[page] = _Frame(page, self._items_per_page)
        self._sets[set_idx].add(page)
        self.pages_allocated_cumulative += 1
        if len(self._frames) > self.pages_allocated_peak:
            self.pages_allocated_peak = len(self._frames)
        return True

    def evictable_page(self, page: int, protect: Iterable[int] = ()) -> int | None:
        """A resident page of ``page``'s set whose items are all
        replaceable (Invalid/Shared) — droppable to make room.

        Pages in ``protect`` are never chosen (e.g. the page being
        allocated, or one involved in an in-flight injection)."""
        protected = set(protect)
        for candidate in self._sets[self.set_of_page(page)]:
            if candidate in protected:
                continue
            frame = self._frames[candidate]
            if all(s.is_replaceable for s in frame.states):
                return candidate
        return None

    def deallocate_page(self, page: int) -> list[tuple[int, ItemState]]:
        """Drop a page frame; returns the (item, state) pairs it held in
        non-invalid states so the protocol can prune sharing lists."""
        frame = self._frames.pop(page, None)
        if frame is None:
            raise KeyError(f"node {self.node_id}: page {page} not resident")
        self._sets[self.set_of_page(page)].discard(page)
        self.page_evictions += 1
        dropped = []
        base = page * self._items_per_page
        for offset, state in enumerate(frame.states):
            if state is not ItemState.INVALID:
                item = base + offset
                dropped.append((item, state))
                group = _GROUP_OF[state]
                if group is not None:
                    self._groups[group].discard(item)
        return dropped

    # -- injection acceptance ---------------------------------------------------

    def injection_probe(self, item: int) -> InjectionSlot:
        """Can this AM accept an injected copy of ``item``?

        Acceptance rules (Section 4.1): the AM may only replace one of
        its *Invalid* or *Shared* lines.  A non-replaceable local copy
        of the same item (owner, CK or Pre-Commit) refuses the
        injection — the two copies of a recovery pair must live in two
        distinct memories.
        """
        page = self.page_of(item)
        frame = self._frames.get(page)
        if frame is not None:
            if frame.states[self._offset(item)].is_replaceable:
                return InjectionSlot.IN_PAGE
            return InjectionSlot.NONE
        if self.free_ways(page) > 0:
            return InjectionSlot.FREE_FRAME
        if self.evictable_page(page) is not None:
            return InjectionSlot.EVICT_PAGE
        return InjectionSlot.NONE

    # -- iteration ----------------------------------------------------------------

    def items_in_group(self, group: str) -> set[int]:
        """Snapshot of items currently in a state group
        (``owned``/``shared``/``shared_ck``/``inv_ck``/``pre_commit``)."""
        return set(self._groups[group])

    def owned_items(self) -> set[int]:
        """Items modified since the last recovery point (Exclusive or
        Master-Shared local copies — Section 3.3)."""
        return set(self._groups["owned"])

    def pages(self) -> Iterator[int]:
        return iter(self._frames)

    def page_items(self, page: int) -> Iterator[tuple[int, ItemState]]:
        frame = self._frames[page]
        base = page * self._items_per_page
        for offset, state in enumerate(frame.states):
            yield base + offset, state

    def frame_states(self) -> Iterator[list[ItemState]]:
        """Each resident frame's per-item state list (read-only use:
        bulk counting without a per-item Python step)."""
        return (frame.states for frame in self._frames.values())

    def non_invalid_items(self) -> Iterator[tuple[int, ItemState]]:
        for page in list(self._frames):
            for item, state in self.page_items(page):
                if state is not ItemState.INVALID:
                    yield item, state

    # -- bulk operations -------------------------------------------------------------

    def clear(self) -> None:
        """Node failure: the whole memory content is lost."""
        self._frames.clear()
        for s in self._sets:
            s.clear()
        for g in self._groups.values():
            g.clear()

    # -- introspection ------------------------------------------------------------

    @property
    def pages_resident(self) -> int:
        return len(self._frames)

    @property
    def total_frames(self) -> int:
        return self.config.n_frames

    def count_in_group(self, group: str) -> int:
        return len(self._groups[group])
