"""Property test: the sector-skipping flush against a per-line scan.

``SectoredCache.flush_all_dirty`` skips a resident sector that holds no
DIRTY line.  The reference kept here walks every line of every resident
sector, as the flush did before.  On random sequences of clean and
dirty fills, upgrades, range invalidations and cleans, sector
evictions, whole-cache invalidations and compiled hit-drain runs, both
must return the same addresses in the same order and leave the same
line states, LRU order and counters.
"""

from types import SimpleNamespace

from hypothesis import given, settings, strategies as st

from repro.config import CacheConfig
from repro.kernel import compiled
from repro.kernel.blocks import BlockRefAt
from repro.memory.cache import SectoredCache
from repro.memory.states import LineState
from repro.stats.collectors import NodeStats

SECTOR = 256
LINE = 64
#: 2 sets x 2 ways of 4-line sectors; addresses span 8 sectors, so the
#: sequences evict sectors in both sets.
GEOMETRY = CacheConfig(size_bytes=4 * SECTOR, associativity=2,
                       sector_bytes=SECTOR, line_bytes=LINE)
ADDR_SPAN = 8 * SECTOR
HAS_DRAIN = compiled.CompiledBackend.availability_error() is None


def reference_flush(cache: SectoredCache) -> list[int]:
    """The per-line scan: every line of every resident sector."""
    flushed = []
    for sector in cache._index.values():
        for idx, state in enumerate(sector.lines):
            if state is LineState.DIRTY:
                sector.lines[idx] = LineState.CLEAN
                flushed.append(cache.line_base_addr(sector.sector_id, idx))
    return flushed


def drain(cache: SectoredCache, refs: list[tuple[bool, int]]) -> None:
    """Run the compiled hit drain over ``refs`` (a no-op when the
    extension is not built: the drain only reads line states)."""
    if not HAS_DRAIN or not refs:
        return
    columns = ([1] * len(refs), [w for w, _ in refs], [a for _, a in refs])
    stream = SimpleNamespace(
        _ref_at=BlockRefAt(lambda proc, base, count: columns, len(refs)),
        position=0, proc_id=0, n_refs=len(refs),
    )
    node = SimpleNamespace(cache=cache, stats=NodeStats(0))
    compiled._hotloops.BatchDrain(
        BlockRefAt, LineState.INVALID, LineState.DIRTY, 1,
        GEOMETRY.n_sets, GEOMETRY.sector_bytes, GEOMETRY.line_bytes,
    )(node, stream, 0, 10**9)


def apply(cache: SectoredCache, op: tuple, flush) -> object:
    """One operation; returns what the test compares for it."""
    kind = op[0]
    if kind == "fill":
        return cache.fill(op[1], dirty=op[2])
    if kind == "mark_dirty":
        try:
            cache.mark_dirty(op[1])
        except KeyError:
            return "absent"
        return None
    if kind == "invalidate_range":
        return cache.invalidate_range(op[1], op[2])
    if kind == "clean_range":
        return cache.clean_range(op[1], op[2])
    if kind == "evict":
        # fill every way of the sector's set with other sectors
        sector = op[1] // SECTOR
        n_sets = GEOMETRY.n_sets
        others = [sector + n_sets * k for k in range(1, GEOMETRY.associativity + 1)]
        return [cache.fill((s % (ADDR_SPAN // SECTOR)) * SECTOR) for s in others]
    if kind == "invalidate_all":
        return cache.invalidate_all()
    if kind == "drain":
        return drain(cache, op[1])
    return flush(cache)


def observe(cache: SectoredCache) -> dict:
    return {
        "lines": {sid: list(s.lines) for sid, s in cache._index.items()},
        "lru": [[s.sector_id for s in ways] for ways in cache._sets],
        "counters": (cache.read_hits, cache.read_misses, cache.write_hits,
                     cache.write_misses, cache.sector_evictions),
    }


addrs = st.integers(0, ADDR_SPAN - 1)
ops = st.one_of(
    st.tuples(st.just("fill"), addrs, st.booleans()),
    st.tuples(st.just("fill"), addrs, st.booleans()),
    st.tuples(st.just("mark_dirty"), addrs),
    st.tuples(st.just("invalidate_range"), addrs, st.integers(1, 3 * SECTOR)),
    st.tuples(st.just("clean_range"), addrs, st.integers(1, 3 * SECTOR)),
    st.tuples(st.just("evict"), addrs),
    st.tuples(st.just("invalidate_all")),
    st.tuples(st.just("drain"),
              st.lists(st.tuples(st.booleans(), addrs), max_size=12)),
    st.tuples(st.just("flush")),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(ops, max_size=40))
def test_flush_matches_per_line_scan(sequence):
    flat = SectoredCache(GEOMETRY)
    ref = SectoredCache(GEOMETRY)
    for op in sequence + [("flush",)]:
        got = apply(flat, op, SectoredCache.flush_all_dirty)
        want = apply(ref, op, reference_flush)
        assert got == want, op
        assert observe(flat) == observe(ref)
    assert flat.dirty_lines() == []


def test_flush_skips_clean_sectors_and_keeps_order():
    cache = SectoredCache(GEOMETRY)
    cache.fill(0)                          # sector 0: clean
    cache.fill(SECTOR + 3 * LINE, dirty=True)
    cache.fill(SECTOR + LINE, dirty=True)  # sector 1: two dirty lines
    cache.fill(2 * SECTOR)
    cache.mark_dirty(2 * SECTOR)           # sector 2: upgraded line
    assert cache.flush_all_dirty() == [SECTOR + LINE, SECTOR + 3 * LINE, 2 * SECTOR]
    assert cache.line_state(SECTOR + LINE) is LineState.CLEAN
    assert cache.flush_all_dirty() == []
