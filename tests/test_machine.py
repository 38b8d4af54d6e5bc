"""End-to-end machine tests: full runs with processors, the checkpoint
scheduler and both protocols."""

from collections import Counter

import pytest

from tests.helpers import small_config
from repro.config import ArchConfig
from repro.machine import Machine
from repro.workloads.datacenter import ZipfKV
from repro.workloads.synthetic import MigratoryShared, PrivateOnly, UniformShared
from repro.workloads.traces import TraceWorkload


def run_machine(wl, protocol="ecp", period=None, n_nodes=4, **kw):
    cfg = small_config(n_nodes)
    if period is not None:
        cfg = cfg.with_ft(checkpoint_period_override=period)
    m = Machine(cfg, wl, protocol=protocol, **kw)
    return m, m.run()


def test_standard_run_completes():
    wl = PrivateOnly(4, refs_per_proc=500)
    m, r = run_machine(wl, protocol="standard")
    assert r.stats.refs == 4 * 500
    assert r.total_cycles > 0
    assert r.stats.n_checkpoints == 0


def test_ecp_run_without_checkpointing():
    wl = PrivateOnly(4, refs_per_proc=500)
    m, r = run_machine(wl, protocol="ecp", checkpointing=False)
    assert r.stats.n_checkpoints == 0


def test_ecp_run_takes_checkpoints():
    wl = PrivateOnly(4, refs_per_proc=3000)
    m, r = run_machine(wl, period=5_000)
    assert r.stats.n_checkpoints >= 2
    assert r.stats.create_cycles > 0
    assert r.stats.commit_cycles > 0


def test_invariants_after_full_run():
    wl = MigratoryShared(4, refs_per_proc=2000, n_objects=64)
    m, r = run_machine(wl, period=8_000)
    m.check_invariants()


def test_census_after_run_contains_ck_pairs():
    wl = PrivateOnly(4, refs_per_proc=3000)
    m, r = run_machine(wl, period=5_000)
    census = r.item_census
    assert census.get("SHARED_CK1", 0) == census.get("SHARED_CK2", 0)
    assert census.get("INV_CK1", 0) == census.get("INV_CK2", 0)
    assert census.get("PRE_COMMIT1", 0) == 0  # none left after commit


def _reference_census(machine):
    """The census counted item by item over the live nodes."""
    return dict(Counter(
        state.name
        for node in machine.nodes if node.alive
        for _item, state in node.am.non_invalid_items()
    ))


def test_census_matches_per_item_count_after_a_failure():
    wl = ZipfKV(6, refs_per_proc=1500, write_fraction=0.5, keyspace_items=512, seed=3)
    m, r = run_machine(wl, period=200_000, n_nodes=6)
    assert r.stats.n_checkpoints == 1
    assert r.item_census == _reference_census(m)
    m.fail_node(2)
    census = m.item_census()
    assert census == _reference_census(m)
    # the recovery-data states the ECP adds are all present
    for name in ("SHARED_CK1", "SHARED_CK2", "INV_CK1", "INV_CK2"):
        assert census.get(name, 0) > 0, name
    assert "INVALID" not in census
    # a down node is excluded by its liveness, not only because a
    # failure wipes its AM: take a live node down with its copies intact
    node = m.nodes[1]
    own = Counter(state.name for _item, state in node.am.non_invalid_items())
    assert own
    node.alive = False
    assert m.item_census() == _reference_census(m)
    assert Counter(m.item_census()) + own == Counter(census)


def test_deterministic_runs():
    r1 = run_machine(PrivateOnly(4, refs_per_proc=1000), period=5000)[1]
    r2 = run_machine(PrivateOnly(4, refs_per_proc=1000), period=5000)[1]
    assert r1.total_cycles == r2.total_cycles
    assert r1.stats.n_checkpoints == r2.stats.n_checkpoints
    assert r1.item_census == r2.item_census


def test_ecp_slower_than_standard():
    base = run_machine(UniformShared(4, refs_per_proc=2000), protocol="standard")[1]
    ft = run_machine(UniformShared(4, refs_per_proc=2000), period=5_000)[1]
    assert ft.total_cycles > base.total_cycles


def test_more_frequent_checkpoints_cost_more():
    slow = run_machine(PrivateOnly(4, refs_per_proc=4000), period=40_000)[1]
    fast = run_machine(PrivateOnly(4, refs_per_proc=4000), period=4_000)[1]
    assert fast.stats.n_checkpoints > slow.stats.n_checkpoints
    assert fast.total_cycles > slow.total_cycles


def test_fewer_procs_than_nodes():
    wl = PrivateOnly(2, refs_per_proc=1000)
    m, r = run_machine(wl, period=5_000, n_nodes=4)
    assert r.stats.refs == 2000
    assert r.stats.n_checkpoints >= 0  # idle nodes still participate


def test_more_procs_than_nodes():
    wl = PrivateOnly(6, refs_per_proc=500)
    m, r = run_machine(wl, n_nodes=4, protocol="standard")
    assert r.stats.refs == 3000


def test_run_result_fields():
    wl = PrivateOnly(4, refs_per_proc=500)
    m, r = run_machine(wl, protocol="standard")
    assert r.protocol == "standard"
    assert r.workload == "private-only"
    assert r.pages_allocated >= 4
    assert r.distinct_pages >= 4
    assert r.wall_seconds > 0


def test_machine_cannot_run_twice():
    wl = PrivateOnly(4, refs_per_proc=100)
    m, _ = run_machine(wl, protocol="standard")
    with pytest.raises(RuntimeError):
        m.run()


def test_standard_rejects_checkpointing_and_failures():
    wl = PrivateOnly(4, refs_per_proc=100)
    cfg = small_config(4)
    with pytest.raises(ValueError):
        Machine(cfg, wl, protocol="standard", checkpointing=True)
    from repro.fault.failures import FailurePlan
    with pytest.raises(ValueError):
        Machine(cfg, wl, protocol="standard", failure_plan=[FailurePlan(10, 0)])


def test_unknown_protocol_rejected():
    wl = PrivateOnly(4, refs_per_proc=100)
    with pytest.raises(ValueError):
        Machine(small_config(4), wl, protocol="magic")


def test_trace_driven_machine_runs():
    ops = [[("w", 0), ("r", 0)], [("r", 0)], [("r", 128)], []]
    wl = TraceWorkload.from_ops(ops)
    m = Machine(small_config(4), wl, protocol="ecp", checkpointing=False)
    r = m.run()
    assert r.stats.refs >= 4


def test_paper_config_defaults():
    cfg = ArchConfig()
    assert cfg.n_nodes == 16
    assert cfg.mesh_shape == (4, 4)
    assert cfg.cache.n_sets == 16
    assert cfg.am.n_frames == 512
    assert cfg.remote_fill_cycles(1) == 116
    assert cfg.remote_fill_cycles(2) == 124


def test_sharedck_reads_counted_in_full_run():
    # after a checkpoint, unmodified checkpointed data is still readable
    wl = UniformShared(4, refs_per_proc=3000, write_fraction=0.2, window_items=8)
    m, r = run_machine(wl, period=6_000)
    assert r.stats.total("sharedck_reads") > 0
