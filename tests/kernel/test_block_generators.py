"""Bit-identity of block-based reference generation.

Every block generator — the C loops of ``_hotloops.BlockGen`` and the
scalar materialisation fallback — must reproduce the workload's own
scalar ``ref_at`` draw for draw, and the ``BlockRefAt`` cache must be
transparent across block boundaries, stream rewinds, stream migration
(process switches) and indices past the stream's end.  The C
generators must also reject, with a Python exception, every input that
would divide by zero or index outside a table in C."""

import pytest

from repro.kernel import compiled
from repro.kernel.blocks import (
    BLOCK_LEN,
    BlockRefAt,
    scalar_block_generator,
    wrap_stream,
)
from repro.workloads.base import Reference, ReferenceStream
from repro.workloads.datacenter import ScanAnalytics, ZipfKV
from repro.workloads.splash import BarnesHut, Cholesky, Mp3d, Water

needs_compiled = pytest.mark.skipif(
    compiled.CompiledBackend.availability_error() is not None,
    reason="the _hotloops extension is not built",
)


def _families():
    return [
        Water(9, seed=5),
        Water(16, scale=0.5, seed=2026),
        BarnesHut(9, seed=9),
        Cholesky(16, seed=3),
        Mp3d(9, seed=13),
        ZipfKV(9, seed=7),
        ScanAnalytics(9, seed=11),
        ScanAnalytics(9, seed=11, table_writes=True),
    ]


def _assert_block_matches(wl, gen, proc, base, count):
    think, is_write, addr = gen(proc, base, count)
    assert len(think) == len(is_write) == len(addr) == count
    for i in range(count):
        expected = wl.ref_at(proc, base + i)
        assert tuple(expected) == (think[i], is_write[i], addr[i]), (
            f"{type(wl).__name__} proc={proc} index={base + i}"
        )


@needs_compiled
@pytest.mark.parametrize(
    "wl", _families(), ids=lambda w: f"{w.name}-{w.n_procs}"
)
def test_c_generators_bit_identical(wl):
    """The C generators match the workloads' ``ref_at``."""
    gen = compiled.make_block_generator(wl)
    assert gen is not None, "every SPLASH/datacenter family has a generator"
    for proc in (0, wl.n_procs - 1):
        # straddle block-cadence boundaries and odd lengths on purpose
        for base, count in ((0, 257), (BLOCK_LEN - 3, 7), (2 * BLOCK_LEN, 64)):
            _assert_block_matches(wl, gen, proc, base, count)


@needs_compiled
def test_c_generator_unknown_family_is_none():
    from repro.workloads.synthetic import UniformShared

    wl = UniformShared(4, refs_per_proc=100)
    assert compiled.make_block_generator(wl) is None


def test_scalar_fallback_bit_identical():
    """The compiled backend's block materialisation for families
    without a C generator."""
    from repro.workloads.synthetic import UniformShared

    wl = UniformShared(4, refs_per_proc=500, seed=17)
    gen = scalar_block_generator(wl)
    for proc in range(2):
        _assert_block_matches(wl, gen, proc, 0, 128)
        _assert_block_matches(wl, gen, proc, 300, 99)


def test_block_ref_at_transparent_across_blocks_and_procs():
    wl = Water(9, seed=21)
    gen = scalar_block_generator(wl)
    n = wl.refs_per_proc()
    cached = BlockRefAt(gen, n)
    # the last three lie past the stream's end, where ref_at is still a
    # pure function
    probes = [0, 1, BLOCK_LEN - 1, BLOCK_LEN, BLOCK_LEN + 1, n - 1,
              n, n + 5, n + BLOCK_LEN + 7]
    # interleave processes and revisit earlier indices: reloads must be
    # invisible (a rewind after checkpoint rollback does exactly this)
    for proc in (0, 3, 0):
        for index in probes + list(reversed(probes)):
            assert cached(proc, index) == wl.ref_at(proc, index)
            assert isinstance(cached(proc, index), Reference)


def test_wrap_stream_is_idempotent():
    wl = Water(9, seed=2)
    stream = ReferenceStream(wl, proc_id=0, n_refs=wl.refs_per_proc())
    gen = scalar_block_generator(wl)
    wrap_stream(stream, gen)
    wrapped = stream._ref_at
    assert isinstance(wrapped, BlockRefAt)
    wrap_stream(stream, gen)
    assert stream._ref_at is wrapped


@needs_compiled
def test_block_column_types_are_plain_python():
    """The drain loop and the scalar path both consume the columns, so
    they must hold plain ints/bools (protocol arithmetic and serialized
    results see them)."""
    for wl in (ZipfKV(9, seed=7), Water(9, seed=7), BarnesHut(9, seed=7)):
        think, is_write, addr = compiled.make_block_generator(wl)(0, 0, 512)
        assert all(type(t) is int for t in think)
        assert all(type(w) is bool for w in is_write)
        assert all(type(a) is int for a in addr)


# -- input checks: C divides and indexes, so bad input must raise -------


#: Every divisor each factory takes, by family.
DIVISORS = {
    "water": ("item_bytes", "priv_n_items", "pw_window", "pr_window",
              "pw_blklen", "rpp", "forces_items", "slice_items"),
    "zipf": ("item_bytes", "clients_per_proc", "session_items_per_client"),
    "scan": ("item_bytes", "table_items", "accumulator_items"),
}


def _args(family):
    wl = {"water": Water(4, seed=3), "zipf": ZipfKV(4, seed=3),
          "scan": ScanAnalytics(4, seed=3)}[family]
    return compiled.generator_args(wl)


@needs_compiled
@pytest.mark.parametrize(
    "family, name",
    [(family, name) for family, names in DIVISORS.items() for name in names],
)
def test_non_positive_divisor_is_rejected(family, name):
    factory, kwargs = _args(family)
    factory(**kwargs)  # the workload's own arguments build
    with pytest.raises(ValueError, match=name):
        factory(**{**kwargs, name: 0})


@needs_compiled
def test_empty_cdf_is_rejected():
    factory, kwargs = _args("zipf")
    with pytest.raises(ValueError, match="cdf"):
        factory(**{**kwargs, "cdf": [], "perm": []})


@needs_compiled
def test_perm_length_must_match_cdf():
    factory, kwargs = _args("zipf")
    with pytest.raises(ValueError, match="perm"):
        factory(**{**kwargs, "perm": kwargs["perm"][:-1]})


@needs_compiled
def test_rank_past_the_table_is_an_index_error():
    """A CDF that never reaches 1.0 lets ``bisect_left`` return the
    table's length, which must raise, as ``_perm[rank]`` does."""
    factory, kwargs = _args("zipf")
    gen = factory(**{**kwargs, "sf_thresh": 0.0, "cdf": [0.0], "perm": [0]})
    with pytest.raises(IndexError, match="rank"):
        gen(0, 0, 64)


@needs_compiled
@pytest.mark.parametrize("base, count", ((-1, 4), (-BLOCK_LEN, 1)))
def test_negative_base_is_rejected(base, count):
    gen = compiled.make_block_generator(Water(4, seed=3))
    with pytest.raises(ValueError, match="base"):
        gen(0, base, count)


@needs_compiled
@pytest.mark.parametrize("count", (0, -1))
def test_empty_count_is_rejected(count):
    gen = compiled.make_block_generator(Water(4, seed=3))
    with pytest.raises(ValueError, match="count"):
        gen(0, 0, count)


@needs_compiled
@pytest.mark.parametrize("proc", (-1, 4))
def test_proc_outside_the_machine_is_an_index_error(proc):
    gen = compiled.make_block_generator(ZipfKV(4, seed=3))
    with pytest.raises(IndexError, match="proc"):
        gen(proc, 0, 1)


@needs_compiled
def test_zipf_rank_ties_go_left():
    """``bisect_left``: a draw equal to a CDF entry takes that entry's
    rank, never the next one (a random draw ties with probability
    ~2**-40, so the fuzz cannot see this)."""
    wl = ZipfKV(4, seed=3)
    h = wl._hash(0, 0, 0x2B1)
    u = ((h >> 11) & ((1 << 53) - 1)) / float(1 << 53)
    factory, kwargs = compiled.generator_args(wl)
    gen = factory(**{**kwargs, "sf_thresh": 0.0, "cdf": [u, 1.0],
                     "perm": [5, 9]})
    assert gen(0, 0, 1)[2] == [wl._store + 5 * wl.item_bytes]
