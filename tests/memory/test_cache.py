"""Unit tests for the sectored processor cache."""

import pytest

from repro.config import CacheConfig
from repro.memory.cache import SectoredCache
from repro.memory.states import LineState


def small_cache(size=8 * 1024, assoc=2, sector=2048, line=64):
    return SectoredCache(CacheConfig(size, assoc, sector, line))


def test_geometry():
    cache = small_cache()
    assert cache.config.n_sectors == 4
    assert cache.config.n_sets == 2
    assert cache.config.lines_per_sector == 32


def test_initially_empty():
    cache = small_cache()
    assert cache.line_state(0) is LineState.INVALID
    assert not cache.read_probe(0)
    assert cache.read_misses == 1


def test_fill_then_read_hit():
    cache = small_cache()
    cache.fill(0x100)
    assert cache.read_probe(0x100)
    assert cache.read_hits == 1


def test_fill_whole_line_not_single_byte():
    cache = small_cache()
    cache.fill(0x100)
    assert cache.read_probe(0x100 + 63)   # same 64B line
    assert not cache.read_probe(0x100 + 64)  # next line


def test_sector_allocation_does_not_validate_other_lines():
    cache = small_cache()
    cache.fill(0)
    assert cache.line_state(64) is LineState.INVALID


def test_write_needs_dirty_line():
    cache = small_cache()
    cache.fill(0, dirty=False)
    assert not cache.write_probe(0)  # CLEAN: needs AM permission
    cache.mark_dirty(0)
    assert cache.write_probe(0)


def test_fill_dirty():
    cache = small_cache()
    cache.fill(0, dirty=True)
    assert cache.line_state(0) is LineState.DIRTY
    assert cache.write_probe(0)


def test_mark_dirty_requires_present_line():
    cache = small_cache()
    with pytest.raises(KeyError):
        cache.mark_dirty(0)
    cache.fill(0)
    with pytest.raises(KeyError):
        cache.mark_dirty(64)  # invalid line within present sector


def test_lru_sector_eviction():
    cache = small_cache()  # 2 ways per set, 2 sets, sector 2KB
    # sectors 0, 2, 4 all map to set 0 (sector_id % 2)
    cache.fill(0 * 2048)
    cache.fill(2 * 2048)
    cache.fill(4 * 2048)  # evicts sector 0 (LRU)
    assert cache.line_state(0) is LineState.INVALID
    assert cache.line_state(2 * 2048) is LineState.CLEAN
    assert cache.sector_evictions == 1


def test_lru_touch_on_access():
    cache = small_cache()
    cache.fill(0 * 2048)
    cache.fill(2 * 2048)
    cache.read_probe(0)  # touch sector 0: now MRU
    cache.fill(4 * 2048)  # evicts sector 2
    assert cache.line_state(0) is LineState.CLEAN
    assert cache.line_state(2 * 2048) is LineState.INVALID


def test_eviction_returns_dirty_writebacks():
    cache = small_cache()
    cache.fill(0, dirty=True)
    cache.fill(128, dirty=True)  # same sector
    cache.fill(2 * 2048)
    writebacks = cache.fill(4 * 2048)  # evicts sector 0 with 2 dirty lines
    assert sorted(writebacks) == [0, 128]


def test_fill_into_full_set_recycles_the_victim_sector():
    cache = small_cache()  # 2 ways per set; sectors 0, 2, 4, 6 share set 0
    cache.fill(0, dirty=True)
    cache.fill(5 * 64, dirty=True)
    cache.fill(7 * 64)
    cache.fill(2 * 2048)
    victim = cache._index[0]
    # the new line sits at an index the victim held dirty
    writebacks = cache.fill(4 * 2048 + 5 * 64)
    assert sorted(writebacks) == [0, 5 * 64]
    assert 0 not in cache._index
    recycled = cache._index[4]
    assert recycled is victim and recycled.sector_id == 4
    expected = [LineState.INVALID] * 32
    expected[5] = LineState.CLEAN
    assert recycled.lines == expected
    assert cache.line_state(0) is LineState.INVALID
    assert cache.sector_evictions == 1
    # LRU order as after a fresh allocation: the newcomer is the MRU,
    # so the next fill into the set evicts sector 2, then sector 4
    assert [s.sector_id for s in cache._sets[0]] == [2, 4]
    assert cache.fill(6 * 2048) == []
    assert [s.sector_id for s in cache._sets[0]] == [4, 6]
    assert cache.line_state(2 * 2048) is LineState.INVALID
    assert cache.fill(0) == []
    assert [s.sector_id for s in cache._sets[0]] == [6, 0]
    assert cache._index[0].lines == [LineState.CLEAN] + [LineState.INVALID] * 31


def test_invalidate_range_covers_item():
    cache = small_cache()
    cache.fill(0)
    cache.fill(64)
    cache.invalidate_range(0, 128)  # one 128-byte item = two lines
    assert cache.line_state(0) is LineState.INVALID
    assert cache.line_state(64) is LineState.INVALID


def test_invalidate_range_leaves_neighbours():
    cache = small_cache()
    cache.fill(0)
    cache.fill(128)
    cache.invalidate_range(0, 128)
    assert cache.line_state(128) is LineState.CLEAN


def test_clean_range_flushes_dirty_lines():
    cache = small_cache()
    cache.fill(0, dirty=True)
    cache.fill(64, dirty=False)
    flushed = cache.clean_range(0, 128)
    assert flushed == [0]
    assert cache.line_state(0) is LineState.CLEAN
    # flushed data remains readable (Section 4.2.3)
    assert cache.read_probe(0)


def test_flush_all_dirty():
    cache = small_cache()
    cache.fill(0, dirty=True)
    cache.fill(2048, dirty=True)
    cache.fill(4096, dirty=False)
    flushed = cache.flush_all_dirty()
    assert sorted(flushed) == [0, 2048]
    assert cache.dirty_lines() == []


def test_invalidate_all():
    cache = small_cache()
    cache.fill(0, dirty=True)
    cache.invalidate_all()
    assert cache.resident_sectors == 0
    assert cache.line_state(0) is LineState.INVALID


def test_dirty_lines_listing():
    cache = small_cache()
    cache.fill(64, dirty=True)
    assert cache.dirty_lines() == [64]


def test_hit_miss_counters():
    cache = small_cache()
    cache.read_probe(0)      # miss
    cache.fill(0)
    cache.read_probe(0)      # hit
    cache.write_probe(0)     # miss (clean)
    cache.mark_dirty(0)
    cache.write_probe(0)     # hit
    assert cache.read_misses == 1
    assert cache.read_hits == 1
    assert cache.write_misses == 1
    assert cache.write_hits == 1


def test_addresses_in_different_sets_do_not_conflict():
    cache = small_cache()
    # sector ids 0,1 -> sets 0,1
    cache.fill(0)
    cache.fill(2048)
    cache.fill(2 * 2048)
    cache.fill(3 * 2048)
    assert cache.resident_sectors == 4


def test_config_validation():
    with pytest.raises(ValueError):
        CacheConfig(size_bytes=1000, sector_bytes=64).validate()
    with pytest.raises(ValueError):
        CacheConfig(sector_bytes=100, line_bytes=64).validate()
