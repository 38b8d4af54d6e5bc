"""Sectored, set-associative processor data cache (KSR1-like).

Tags are kept per *sector* (2 KB); validity and dirtiness per *line*
(64 B).  Allocation happens at sector granularity; lines fill on
demand.  The cache is write-back and is kept coherent with the local AM
by the protocol layer, which invalidates cached lines whenever the
underlying AM item loses read or write permission.
"""

from __future__ import annotations

from repro.config import CacheConfig
from repro.memory.states import LineState

# the probe/fill paths run once per simulated reference: a module
# global is cheaper to read than an enum class attribute
_INVALID = LineState.INVALID
_CLEAN = LineState.CLEAN
_DIRTY = LineState.DIRTY


class _Sector:
    __slots__ = ("sector_id", "lines")

    def __init__(self, sector_id: int, n_lines: int):
        self.sector_id = sector_id
        self.lines = [LineState.INVALID] * n_lines


class SectoredCache:
    """One node's data cache."""

    def __init__(self, config: CacheConfig):
        self.config = config
        self._n_sets = config.n_sets
        self._assoc = config.associativity
        self._lines_per_sector = config.lines_per_sector
        # probe-path copies of the geometry (attribute chains through
        # ``self.config`` cost real time at one probe per reference)
        self._sector_bytes = config.sector_bytes
        self._line_bytes = config.line_bytes
        #: The line states of a freshly allocated sector (copied, never
        #: mutated).
        self._blank_lines = (_INVALID,) * config.lines_per_sector
        # Per set: list of sectors in LRU order (front = LRU, back = MRU).
        self._sets: list[list[_Sector]] = [[] for _ in range(self._n_sets)]
        self._index: dict[int, _Sector] = {}
        # statistics
        self.read_hits = 0
        self.read_misses = 0
        self.write_hits = 0
        self.write_misses = 0
        self.sector_evictions = 0

    # -- geometry helpers -------------------------------------------------

    def sector_of(self, addr: int) -> int:
        return addr // self._sector_bytes

    def _line_index(self, addr: int) -> int:
        return (addr % self._sector_bytes) // self._line_bytes

    def line_base_addr(self, sector_id: int, line_idx: int) -> int:
        return sector_id * self.config.sector_bytes + line_idx * self.config.line_bytes

    # -- lookups ------------------------------------------------------------

    def line_state(self, addr: int) -> LineState:
        sector = self._index.get(addr // self._sector_bytes)
        if sector is None:
            return LineState.INVALID
        return sector.lines[(addr % self._sector_bytes) // self._line_bytes]

    def read_probe(self, addr: int) -> bool:
        """Processor read: hit iff the line is CLEAN or DIRTY."""
        # line_state + LRU touch fused into one sector lookup: this and
        # write_probe run once per simulated reference
        sector_bytes = self._sector_bytes
        sector_id = addr // sector_bytes
        sector = self._index.get(sector_id)
        if (
            sector is None
            or sector.lines[(addr % sector_bytes) // self._line_bytes]
            is _INVALID
        ):
            self.read_misses += 1
            return False
        self.read_hits += 1
        self._touch_sector(sector_id, sector)
        return True

    def write_probe(self, addr: int) -> bool:
        """Processor write: hit iff the line is already DIRTY.

        A CLEAN line still needs write permission from the AM item
        (checked by the protocol layer), so it is reported as a miss
        here; the protocol upgrades it with :meth:`mark_dirty` once the
        AM grants exclusivity.
        """
        sector_bytes = self._sector_bytes
        sector_id = addr // sector_bytes
        sector = self._index.get(sector_id)
        if (
            sector is not None
            and sector.lines[(addr % sector_bytes) // self._line_bytes]
            is _DIRTY
        ):
            self.write_hits += 1
            self._touch_sector(sector_id, sector)
            return True
        self.write_misses += 1
        return False

    # -- fills and upgrades ---------------------------------------------------

    def fill(self, addr: int, dirty: bool = False) -> list[int]:
        """Install the line holding ``addr``.

        Returns the base addresses of dirty lines written back because
        of a sector eviction (the protocol flushes them to the AM).
        """
        # one sector lookup, as in read_probe; a newly allocated sector
        # is already the MRU of its set
        sector_bytes = self._sector_bytes
        sector_id = addr // sector_bytes
        sector = self._index.get(sector_id)
        if sector is None:
            sector, writebacks = self._allocate_sector(sector_id)
        else:
            writebacks = []
            self._touch_sector(sector_id, sector)
        lines = sector.lines
        idx = (addr % sector_bytes) // self._line_bytes
        if dirty or lines[idx] is not _DIRTY:
            # a clean refill never downgrades a dirty line (its data is
            # newer than the AM's until written back)
            lines[idx] = _DIRTY if dirty else _CLEAN
        return writebacks

    def mark_dirty(self, addr: int) -> None:
        """Upgrade a present line to DIRTY (AM granted exclusivity)."""
        sector = self._index.get(self.sector_of(addr))
        if sector is None:
            raise KeyError(f"line for addr {addr:#x} not present")
        idx = self._line_index(addr)
        if sector.lines[idx] is LineState.INVALID:
            raise KeyError(f"line for addr {addr:#x} is invalid")
        sector.lines[idx] = LineState.DIRTY

    def _allocate_sector(self, sector_id: int) -> tuple[_Sector, list[int]]:
        ways = self._sets[sector_id % self._n_sets]
        writebacks: list[int] = []
        if len(ways) >= self._assoc:
            # the LRU victim's sector object is recycled for the new tag
            sector = ways.pop(0)
            lines = sector.lines
            del self._index[sector.sector_id]
            self.sector_evictions += 1
            if _DIRTY in lines:
                for idx, state in enumerate(lines):
                    if state is _DIRTY:
                        writebacks.append(self.line_base_addr(sector.sector_id, idx))
            sector.sector_id = sector_id
            lines[:] = self._blank_lines
        else:
            sector = _Sector(sector_id, self._lines_per_sector)
        ways.append(sector)
        self._index[sector_id] = sector
        return sector, writebacks

    def _touch_sector(self, sector_id: int, sector: _Sector) -> None:
        # ``sector`` is resident, so its set is non-empty
        ways = self._sets[sector_id % self._n_sets]
        if ways[-1] is sector:
            return
        ways.remove(sector)
        ways.append(sector)

    # -- coherence actions ------------------------------------------------------

    def invalidate_range(self, base_addr: int, n_bytes: int) -> None:
        """Invalidate every cached line overlapping [base, base+n)."""
        # every coherence invalidation and ownership move runs this:
        # the geometry helpers are inlined
        sector_bytes = self._sector_bytes
        line_bytes = self._line_bytes
        index = self._index
        addr = base_addr
        end = base_addr + n_bytes
        while addr < end:
            sector = index.get(addr // sector_bytes)
            if sector is not None:
                sector.lines[(addr % sector_bytes) // line_bytes] = _INVALID
            addr += line_bytes

    def clean_range(self, base_addr: int, n_bytes: int) -> list[int]:
        """Downgrade DIRTY lines in the range to CLEAN (checkpoint
        flush); returns the base addresses of the lines flushed."""
        line_bytes = self.config.line_bytes
        flushed: list[int] = []
        addr = base_addr
        end = base_addr + n_bytes
        while addr < end:
            sector = self._index.get(self.sector_of(addr))
            if sector is not None:
                idx = self._line_index(addr)
                if sector.lines[idx] is LineState.DIRTY:
                    sector.lines[idx] = LineState.CLEAN
                    flushed.append(addr - addr % line_bytes)
            addr += line_bytes
        return flushed

    def flush_all_dirty(self) -> list[int]:
        """Downgrade every DIRTY line to CLEAN; return their addresses."""
        # every node runs this at every establishment: a sector with no
        # DIRTY line, the common case, costs one C-level ``in`` scan
        sector_bytes = self._sector_bytes
        line_bytes = self._line_bytes
        flushed: list[int] = []
        for sector in self._index.values():
            lines = sector.lines
            if _DIRTY not in lines:
                continue
            base = sector.sector_id * sector_bytes
            for idx, state in enumerate(lines):
                if state is _DIRTY:
                    lines[idx] = _CLEAN
                    flushed.append(base + idx * line_bytes)
        return flushed

    def invalidate_all(self) -> None:
        """Drop everything (volatile cache lost on failure/recovery)."""
        self._sets = [[] for _ in range(self._n_sets)]
        self._index.clear()

    # -- introspection -------------------------------------------------------

    @property
    def resident_sectors(self) -> int:
        return len(self._index)

    def dirty_lines(self) -> list[int]:
        result = []
        for sector in self._index.values():
            for idx, state in enumerate(sector.lines):
                if state is LineState.DIRTY:
                    result.append(self.line_base_addr(sector.sector_id, idx))
        return result
