"""Differential property test: the C block generators against the
workloads' scalar ``ref_at``.

Seeds cover 0, values above 2**32 and values whose ``seed * 0x1F1F1F1F``
exceeds 2**64 (where the C side sees the product reduced mod 2**64);
blocks start anywhere in the stream, including across the 4096-ref block
and the 32768-ref private write block and at the last partial block, and
run for 1 to 4096 references.  The Zipf family runs with uniform and
skewed keys over one key and over 8192; the scan family with and
without table writes.  Barnes and Mp3d take the callback path for their
shared references, Water its C shared path.
"""

from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from repro.kernel import compiled
from repro.kernel.blocks import BLOCK_LEN
from repro.workloads.datacenter import ScanAnalytics, ZipfKV
from repro.workloads.splash import BarnesHut, Mp3d, Water

if compiled.CompiledBackend.availability_error() is not None:  # pragma: no cover
    pytest.skip("the _hotloops extension is not built", allow_module_level=True)

#: Private write-window block of the calibrated families.
WRITE_BLOCK = Water.WRITE_BLOCK_LEN

FAMILIES = (
    ("water", {}),
    ("barnes", {}),
    ("mp3d", {}),
    ("zipf", {"skew": 0.0, "keyspace_items": 1}),
    ("zipf", {"skew": 0.99, "keyspace_items": 1}),
    ("zipf", {"skew": 0.0, "keyspace_items": 8192}),
    ("zipf", {"skew": 0.99, "keyspace_items": 8192}),
    ("scan", {"table_writes": False}),
    ("scan", {"table_writes": True}),
)


@lru_cache(maxsize=32)
def _workload(family: int, seed: int, n_procs: int):
    """Workloads and generators are pure, so shrinking can reuse them."""
    name, kw = FAMILIES[family]
    if name == "zipf":
        wl = ZipfKV(n_procs, seed=seed, refs_per_proc=50_000, **kw)
    elif name == "scan":
        wl = ScanAnalytics(n_procs, seed=seed, refs_per_proc=50_000, **kw)
    else:
        cls = {"water": Water, "barnes": BarnesHut, "mp3d": Mp3d}[name]
        wl = cls(n_procs, scale=0.05, seed=seed)
    return wl, compiled.make_block_generator(wl)


seeds = st.one_of(
    st.just(0),
    st.integers(1, 2**32),
    st.integers(2**32, 2**35),
    # seed * 0x1F1F1F1F >= 2**64
    st.integers(2**64 // 0x1F1F1F1F + 1, 2**80),
)


@st.composite
def blocks(draw):
    family = draw(st.integers(0, len(FAMILIES) - 1))
    seed = draw(seeds)
    n_procs = draw(st.sampled_from((1, 4, 9, 16)))
    wl, gen = _workload(family, seed, n_procs)
    proc = draw(st.integers(0, n_procs - 1))
    count = draw(st.integers(1, BLOCK_LEN))
    n_refs = wl.refs_per_proc()
    edge = draw(st.sampled_from((BLOCK_LEN, WRITE_BLOCK)))
    base = draw(st.one_of(
        # straddle a 4096-ref or a 32768-ref boundary
        st.builds(lambda k, back: max(0, k * edge - back),
                  st.integers(1, 4), st.integers(0, count)),
        # the last partial block of the stream, or just past its end
        st.builds(lambda back: max(0, n_refs - back), st.integers(0, count)),
        st.integers(0, 4 * WRITE_BLOCK),
    ))
    return wl, gen, proc, base, count


@settings(max_examples=300, deadline=None)
@given(blocks())
def test_c_blocks_match_scalar_ref_at(block):
    wl, gen, proc, base, count = block
    think, is_write, addr = gen(proc, base, count)
    assert len(think) == len(is_write) == len(addr) == count
    ref_at = wl.ref_at
    for i in range(count):
        assert (think[i], is_write[i], addr[i]) == tuple(ref_at(proc, base + i)), (
            f"{wl.name} seed={wl.seed} proc={proc} index={base + i}"
        )
