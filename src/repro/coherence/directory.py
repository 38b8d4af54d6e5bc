"""Localization pointers and directory entries.

As in the architecture of Section 4, items are located on a miss
through *localization pointers* statically distributed over the nodes
(the pointer for an item lives on its *home* node, a hash of its page),
while the *directory entry* — sharing list plus, for the ECP, the
identity of the node holding the secondary recovery copy — travels with
the item and is maintained on the node that currently serves requests
for it (the owner, or the Shared-CK1 holder after a recovery point).

Both structures are stored per node so that a node failure loses
exactly the co-located portions; recovery rebuilds them from the
surviving AM scans (DESIGN.md section 3, substitutions).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(slots=True)
class DirectoryEntry:
    """Directory state for one item, resident at its serving node."""

    #: Nodes holding a plain ``Shared`` copy.
    sharers: set[int] = field(default_factory=set)
    #: Node holding the paired recovery/pre-commit copy (``Shared-CK2``,
    #: ``Inv-CK2`` or ``Pre-Commit2``); ECP only.
    partner: int | None = None

    def copy(self) -> "DirectoryEntry":
        return DirectoryEntry(sharers=set(self.sharers), partner=self.partner)


class Directory:
    """Machine-wide view of pointers and entries, stored per node."""

    def __init__(self, n_nodes: int, items_per_page: int):
        self.n_nodes = n_nodes
        self.items_per_page = items_per_page
        # pointers[home_node][item] -> serving node
        self._pointers: list[dict[int, int]] = [{} for _ in range(n_nodes)]
        # entries[serving_node][item] -> DirectoryEntry
        self._entries: list[dict[int, DirectoryEntry]] = [{} for _ in range(n_nodes)]

    # -- homes ---------------------------------------------------------

    def home_of(self, item: int) -> int:
        """Static pointer distribution: by page, round-robin over nodes."""
        return (item // self.items_per_page) % self.n_nodes

    # -- localization pointers -------------------------------------------

    def serving_node(self, item: int) -> int | None:
        """Node currently answering requests for ``item`` (owner or
        Shared-CK1 holder), or None if the item was never touched."""
        # home_of inlined: one lookup per remote miss
        return self._pointers[(item // self.items_per_page) % self.n_nodes].get(item)

    def set_serving_node(self, item: int, node: int) -> None:
        self._pointers[(item // self.items_per_page) % self.n_nodes][item] = node

    def drop_pointer(self, item: int) -> None:
        self._pointers[self.home_of(item)].pop(item, None)

    def pointer_partition_size(self, node: int) -> int:
        """Entries in ``node``'s pointer partition (what a join must
        reclaim from the ring successor hosting it)."""
        return len(self._pointers[node])

    # -- directory entries --------------------------------------------------

    def entry(self, node: int, item: int) -> DirectoryEntry:
        """The entry for ``item`` at serving node ``node`` (created on
        first use)."""
        entries = self._entries[node]
        found = entries.get(item)
        if found is None:
            found = DirectoryEntry()
            entries[item] = found
        return found

    def peek_entry(self, node: int, item: int) -> DirectoryEntry | None:
        return self._entries[node].get(item)

    def move_entry(self, item: int, src: int, dst: int) -> DirectoryEntry:
        """Relocate the entry when request service moves to ``dst``."""
        entry = self._entries[src].pop(item, None)
        if entry is None:
            entry = DirectoryEntry()
        self._entries[dst][item] = entry
        return entry

    def drop_entry(self, node: int, item: int) -> None:
        self._entries[node].pop(item, None)

    def entries_at(self, node: int) -> dict[int, DirectoryEntry]:
        return self._entries[node]

    # -- failure handling -----------------------------------------------------

    def wipe_node(self, node: int) -> tuple[dict[int, int], dict[int, DirectoryEntry]]:
        """A node failed: its pointer partition and resident entries are
        lost.  Returns what was lost (tests use this; recovery rebuilds
        from AM scans, not from this return value)."""
        lost_pointers = self._pointers[node]
        lost_entries = self._entries[node]
        self._pointers[node] = {}
        self._entries[node] = {}
        return lost_pointers, lost_entries

    def rebuild_pointer(self, item: int, node: int) -> None:
        """Recovery-phase pointer reconstruction."""
        self.set_serving_node(item, node)

    def clear_all(self) -> None:
        """Drop every pointer and entry (recovery rebuilds from the
        surviving AM scans)."""
        for p in self._pointers:
            p.clear()
        for e in self._entries:
            e.clear()

    # -- invariants (used by tests and runtime checking) ---------------------------

    def snapshot(self) -> tuple:
        """Canonical, hashable image of all pointers and entries (used
        by the model checker to deduplicate global states).  Empty
        entries are omitted: they are indistinguishable from absent
        ones, which are created lazily."""
        pointers = tuple(
            sorted(
                (item, serving)
                for partition in self._pointers
                for item, serving in partition.items()
            )
        )
        entries = tuple(
            sorted(
                (node, item, tuple(sorted(entry.sharers)), entry.partner)
                for node, partition in enumerate(self._entries)
                for item, entry in partition.items()
                if entry.sharers or entry.partner is not None
            )
        )
        return pointers, entries

    def pointer_count(self) -> int:
        return sum(len(p) for p in self._pointers)

    def entry_count(self) -> int:
        return sum(len(e) for e in self._entries)
