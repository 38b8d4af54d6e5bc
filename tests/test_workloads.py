"""Workload tests: determinism, Table 3 calibration, stream mechanics."""

import pytest

from repro.workloads.base import Reference, mix64
from repro.workloads.splash import SPLASH_WORKLOADS, make_workload
from repro.workloads.synthetic import MigratoryShared, PrivateOnly, UniformShared
from repro.workloads.traces import TraceWorkload, record_trace

#: Table 3 of the paper, as fractions of instructions.
TABLE3 = {
    "barnes": (0.184, 0.107, 0.042, 0.001),
    "cholesky": (0.233, 0.062, 0.188, 0.033),
    "mp3d": (0.163, 0.097, 0.131, 0.083),
    "water": (0.237, 0.069, 0.043, 0.005),
}


# ------------------------------------------------------------ determinism

@pytest.mark.parametrize("name", sorted(SPLASH_WORKLOADS))
def test_ref_at_is_pure(name):
    wl1 = make_workload(name, n_procs=4, scale=0.001, seed=7)
    wl2 = make_workload(name, n_procs=4, scale=0.001, seed=7)
    for proc in range(4):
        for i in (0, 1, 17, 999):
            assert wl1.ref_at(proc, i) == wl2.ref_at(proc, i)


def test_seed_changes_streams():
    a = make_workload("mp3d", 4, scale=0.001, seed=1)
    b = make_workload("mp3d", 4, scale=0.001, seed=2)
    refs_a = [a.ref_at(0, i) for i in range(50)]
    refs_b = [b.ref_at(0, i) for i in range(50)]
    assert refs_a != refs_b


def test_procs_differ():
    wl = make_workload("water", 4, scale=0.001)
    refs0 = [wl.ref_at(0, i).addr for i in range(100)]
    refs1 = [wl.ref_at(1, i).addr for i in range(100)]
    assert refs0 != refs1


# ------------------------------------------------------------ Table 3 calibration

@pytest.mark.parametrize("name", sorted(TABLE3))
def test_table3_composition(name):
    wl = make_workload(name, n_procs=8, scale=0.01)
    profile = wl.characterize(max_refs_per_proc=3000)
    rd, wr, srd, swr = TABLE3[name]
    assert profile.read_fraction == pytest.approx(rd, rel=0.08)
    assert profile.write_fraction == pytest.approx(wr, rel=0.08)
    assert profile.shared_read_fraction == pytest.approx(srd, rel=0.15)
    assert profile.shared_write_fraction == pytest.approx(swr, rel=0.30)


@pytest.mark.parametrize("name", sorted(SPLASH_WORKLOADS))
def test_addresses_stay_in_footprint(name):
    wl = make_workload(name, n_procs=4, scale=0.005)
    for proc in range(4):
        for i in range(500):
            ref = wl.ref_at(proc, i)
            assert 0 <= ref.addr < wl.footprint_bytes
            assert ref.think >= 0


@pytest.mark.parametrize("name", sorted(SPLASH_WORKLOADS))
def test_private_addresses_below_shared_base(name):
    wl = make_workload(name, n_procs=4, scale=0.005)
    assert wl.shared_base is not None
    # private regions come first in the layout
    assert wl.shared_base > 0


def test_scale_shrinks_stream_and_footprint():
    small = make_workload("cholesky", 4, scale=0.001)
    big = make_workload("cholesky", 4, scale=0.01)
    assert small.refs_per_proc() < big.refs_per_proc()
    assert small.footprint_bytes <= big.footprint_bytes


def test_mp3d_working_set_larger_than_barnes():
    # the paper explains Mp3d's T_create by a working set ~9x Barnes'
    mp3d = make_workload("mp3d", 16, scale=1.0)
    barnes = make_workload("barnes", 16, scale=1.0)
    mp3d_shared = mp3d.footprint_bytes - mp3d.shared_base
    barnes_shared = barnes.footprint_bytes - barnes.shared_base
    assert mp3d_shared > 4 * barnes_shared


# ------------------------------------------------------------ streams

def test_stream_iteration_and_rewind():
    wl = PrivateOnly(2, refs_per_proc=10)
    stream = wl.build_streams()[0]
    first = stream.next_ref()
    stream.next_ref()
    assert stream.position == 2
    stream.rewind_to(0)
    assert stream.next_ref() == first


def test_stream_exhaustion():
    wl = PrivateOnly(1, refs_per_proc=3)
    stream = wl.build_streams()[0]
    for _ in range(3):
        assert stream.next_ref() is not None
    assert stream.next_ref() is None
    assert stream.exhausted
    assert stream.remaining == 0


def test_stream_rewind_bounds():
    wl = PrivateOnly(1, refs_per_proc=3)
    stream = wl.build_streams()[0]
    with pytest.raises(ValueError):
        stream.rewind_to(4)
    with pytest.raises(ValueError):
        stream.rewind_to(-1)


def test_build_streams_one_per_proc():
    wl = PrivateOnly(5, refs_per_proc=10)
    streams = wl.build_streams()
    assert [s.proc_id for s in streams] == [0, 1, 2, 3, 4]


# ------------------------------------------------------------ synthetic workloads

def test_private_only_never_shares():
    wl = PrivateOnly(4, refs_per_proc=200)
    addrs = {p: {wl.ref_at(p, i).addr for i in range(200)} for p in range(4)}
    for a in range(4):
        for b in range(a + 1, 4):
            # distinct 64KB regions never overlap at item granularity
            items_a = {x // 128 for x in addrs[a]}
            items_b = {x // 128 for x in addrs[b]}
            assert not (items_a & items_b)


def test_uniform_shared_is_shared():
    wl = UniformShared(4, refs_per_proc=100)
    assert all(wl.is_shared_addr(wl.ref_at(0, i).addr) for i in range(100))


def test_migratory_alternates_read_write():
    wl = MigratoryShared(2, refs_per_proc=10)
    refs = [wl.ref_at(0, i) for i in range(10)]
    assert [r.is_write for r in refs] == [False, True] * 5


def test_migratory_rotates_objects_between_epochs():
    wl = MigratoryShared(2, refs_per_proc=300, n_objects=64, epoch_len=10)
    addr_epoch0 = {wl.ref_at(0, i).addr for i in range(10)}
    addr_epoch5 = {wl.ref_at(0, i).addr for i in range(50, 60)}
    assert addr_epoch0 != addr_epoch5


# ------------------------------------------------------------ traces

def test_trace_roundtrip():
    wl = PrivateOnly(2, refs_per_proc=20)
    traces = record_trace(wl)
    replay = TraceWorkload(traces, shared_base=wl.shared_base)
    for p in range(2):
        for i in range(20):
            assert replay.ref_at(p, i) == wl.ref_at(p, i)


def test_trace_record_truncates_and_keeps_shared_base():
    wl = PrivateOnly(2, refs_per_proc=20)
    traces = record_trace(wl, max_refs_per_proc=10)
    assert [len(t) for t in traces] == [10, 10]
    replay = TraceWorkload(traces, shared_base=256)
    assert replay.n_procs == 2
    assert replay.refs_per_proc() == 10
    assert replay.ref_at(1, 9) == wl.ref_at(1, 9)
    assert replay.shared_base == 256
    assert replay.is_shared_addr(256)
    assert not replay.is_shared_addr(0)


def test_trace_from_ops():
    wl = TraceWorkload.from_ops([[("r", 0), ("w", 128)]])
    assert wl.ref_at(0, 0) == Reference(think=2, is_write=False, addr=0)
    assert wl.ref_at(0, 1).is_write


def test_trace_rejects_bad_op():
    with pytest.raises(ValueError):
        TraceWorkload.from_ops([[("x", 0)]])


def test_trace_pads_short_streams():
    wl = TraceWorkload.from_ops([[("r", 0), ("r", 64)], [("r", 128)]])
    assert wl.refs_per_proc() == 2
    pad = wl.ref_at(1, 1)
    assert pad.addr == 128  # idles on its first address
    assert not pad.is_write


def test_empty_traces_rejected():
    with pytest.raises(ValueError):
        TraceWorkload([])


# ------------------------------------------------------------ utilities

def test_mix64_is_deterministic_and_spread():
    values = {mix64(i) for i in range(1000)}
    assert len(values) == 1000
    assert mix64(42) == mix64(42)


def test_workload_factory_rejects_unknown():
    with pytest.raises(ValueError):
        make_workload("doom", 4)


def test_invalid_workload_parameters():
    with pytest.raises(ValueError):
        PrivateOnly(0)
    with pytest.raises(ValueError):
        make_workload("water", 4, scale=0)


def test_think_time_mean_matches_density():
    wl = make_workload("mp3d", 4, scale=0.002)
    thinks = [wl.ref_at(0, i).think for i in range(4000)]
    mean = sum(thinks) / len(thinks)
    # Mp3d: 26% of instructions are references -> ~2.85 think per ref
    assert mean == pytest.approx(1 / 0.26 - 1, rel=0.05)
