"""Differential property test: the compiled hit drain against the
interpreter.

The reference walks the same block reference by reference with the
cache's own ``read_probe``/``write_probe`` and stops where the
processor's batch loop would hand the reference to the protocol: at
the first reference that is not a plain hit, at the deadline, or at
the end of the cached block.  On random cache states (resident sectors,
line states, LRU order), block columns, start offsets, deadlines and
read/write mixes, both must consume the same references and leave the
same local time, hit counters, node statistics, stream position, line
states and LRU order.
"""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import CacheConfig
from repro.kernel import compiled
from repro.kernel.blocks import BLOCK_LEN, BlockRefAt
from repro.memory.cache import SectoredCache
from repro.memory.states import LineState
from repro.stats.collectors import NodeStats

if compiled.CompiledBackend.availability_error() is not None:  # pragma: no cover
    pytest.skip("the _hotloops extension is not built", allow_module_level=True)

SECTOR = 256
LINE = 64
#: 2 sets x 2 ways of 4-line sectors; addresses span 8 sectors, so a
#: draw mixes resident and absent sectors in both sets.
GEOMETRY = CacheConfig(size_bytes=4 * SECTOR, associativity=2,
                       sector_bytes=SECTOR, line_bytes=LINE)
ADDR_SPAN = 8 * SECTOR
HIT_LAT = 2
STATES = (LineState.INVALID, LineState.CLEAN, LineState.DIRTY)


def _drain():
    return compiled._hotloops.BatchDrain(
        BlockRefAt, LineState.INVALID, LineState.DIRTY, HIT_LAT,
        GEOMETRY.n_sets, GEOMETRY.sector_bytes, GEOMETRY.line_bytes,
    )


@st.composite
def scenarios(draw):
    # resident sectors in fill order (= LRU order per set), with the
    # state of each of their lines
    sectors = draw(st.lists(st.integers(0, ADDR_SPAN // SECTOR - 1),
                            unique=True, max_size=6))
    # valid lines are likelier than invalid ones, so runs of hits are long
    line_states = st.sampled_from(STATES + STATES[1:])
    lines = [draw(st.lists(line_states, min_size=4, max_size=4))
             for _ in sectors]
    # the block pattern, its addresses mostly in the drawn sectors; a
    # long stream repeats it so the walk can cross a block boundary
    n = draw(st.integers(1, 16))
    write_share = draw(st.sampled_from((0.0, 0.3, 0.7, 1.0)))
    drawn_sector = (st.sampled_from(sectors) if sectors
                    else st.integers(0, ADDR_SPAN // SECTOR - 1))
    in_drawn = st.builds(lambda sector, offset: sector * SECTOR + offset,
                         drawn_sector, st.integers(0, SECTOR - 1))
    # two addresses in three fall in a drawn sector
    address = st.one_of(st.integers(0, ADDR_SPAN - 1), in_drawn, in_drawn)
    pattern = [
        (draw(st.integers(0, 9)),
         draw(st.floats(0, 1)) < write_share,
         draw(address))
        for _ in range(n)
    ]
    n_refs = draw(st.sampled_from((n, BLOCK_LEN + n)))
    if n_refs > n:
        start = draw(st.integers(BLOCK_LEN - n, BLOCK_LEN - 1))
    else:
        start = draw(st.integers(0, n))
    t_local = draw(st.integers(0, 1000))
    deadline = t_local + draw(st.integers(0, 120))
    return sectors, lines, pattern, n_refs, start, t_local, deadline


def _build(sectors, lines, pattern, n_refs, start):
    cache = SectoredCache(GEOMETRY)
    for sector_id, states in zip(sectors, lines):
        base = sector_id * SECTOR
        cache.fill(base)  # allocate (evicting the set's LRU sector)
        cache.invalidate_range(base, LINE)
        for idx, state in enumerate(states):
            if state is not LineState.INVALID:
                cache.fill(base + idx * LINE, dirty=state is LineState.DIRTY)
    k = len(pattern)

    def gen(proc, base, count):
        refs = [pattern[(base + i) % k] for i in range(count)]
        return ([r[0] for r in refs], [r[1] for r in refs], [r[2] for r in refs])

    stream = SimpleNamespace(_ref_at=BlockRefAt(gen, n_refs), position=start,
                             proc_id=0, n_refs=n_refs)
    node = SimpleNamespace(cache=cache, stats=NodeStats(0))
    return node, stream


def _reference_drain(node, stream, t_local, deadline):
    """The interpreter's handling of the same run of hits."""
    cache, stats, ref_at = node.cache, node.stats, stream._ref_at
    position = stream.position
    _, _, addrs, base = ref_at.block(stream.proc_id, position)
    end = base + len(addrs)
    consumed = 0
    while position < end and t_local < deadline:
        think, is_write, addr = ref_at(stream.proc_id, position)
        state = cache.line_state(addr)
        if is_write:
            if state is not LineState.DIRTY:
                break
            assert cache.write_probe(addr)
            stats.writes += 1
        else:
            if state is LineState.INVALID:
                break
            assert cache.read_probe(addr)
            stats.reads += 1
        stats.refs += 1
        t_local += think + HIT_LAT
        position += 1
        consumed += 1
    stream.position = position
    return consumed, t_local


def _observable(node, stream):
    cache = node.cache
    return {
        "position": stream.position,
        "stats": (node.stats.refs, node.stats.reads, node.stats.writes),
        "counters": (cache.read_hits, cache.write_hits,
                     cache.read_misses, cache.write_misses),
        "lru": [[s.sector_id for s in ways] for ways in cache._sets],
        "lines": {sid: list(s.lines) for sid, s in cache._index.items()},
    }


@settings(max_examples=400, deadline=None)
@given(scenarios())
def test_drain_matches_interpreter(scenario):
    sectors, lines, pattern, n_refs, start, t_local, deadline = scenario
    node_c, stream_c = _build(sectors, lines, pattern, n_refs, start)
    node_p, stream_p = _build(sectors, lines, pattern, n_refs, start)
    got = _drain()(node_c, stream_c, t_local, deadline)
    want = _reference_drain(node_p, stream_p, t_local, deadline)
    assert got == want
    assert _observable(node_c, stream_c) == _observable(node_p, stream_p)


def test_drain_skips_streams_without_blocks():
    node, stream = _build([0], [list(STATES[1:]) * 2], [(1, False, 0)], 1, 0)
    stream._ref_at = lambda proc, index: (1, False, 0)
    assert _drain()(node, stream, 5, 100) == (0, 5)
    assert stream.position == 0


def test_non_positive_geometry_is_rejected():
    for geometry in ((0, 256, 64), (2, 0, 64), (2, 256, -64)):
        with pytest.raises(ValueError):
            compiled._hotloops.BatchDrain(
                BlockRefAt, LineState.INVALID, LineState.DIRTY, HIT_LAT, *geometry
            )


def test_start_outside_block_is_rejected():
    node, stream = _build([0], [[LineState.CLEAN] * 4], [(1, False, 0)] * 4, 4, 2)
    ref_at = stream._ref_at
    ref_at.block(0, 2)
    ref_at._end = 100  # a corrupt cache claiming more than its columns hold
    stream.position = 50
    with pytest.raises(IndexError):
        _drain()(node, stream, 0, 1000)
    assert stream.position == 50 and node.stats.refs == 0


def test_wrong_arity_is_rejected():
    node, stream = _build([0], [[LineState.CLEAN] * 4], [(1, False, 0)], 1, 0)
    with pytest.raises(TypeError):
        _drain()(node, stream, 0)
