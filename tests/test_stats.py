"""Unit tests for statistics collection and report formatting."""

import pytest

from repro.coherence.injection import InjectionCause
from repro.stats.collectors import MachineStats, NodeStats
from repro.stats.report import format_bytes, format_percent, format_table


def test_node_stats_miss_rates():
    ns = NodeStats(0)
    ns.refs = 1000
    ns.reads = 700
    ns.writes = 300
    ns.am_read_misses = 7
    ns.am_write_misses = 3
    assert ns.am_misses == 10
    assert ns.am_miss_rate() == pytest.approx(0.01)
    assert ns.am_read_miss_rate() == pytest.approx(0.01)
    assert ns.am_write_miss_rate() == pytest.approx(0.01)


def test_node_stats_zero_refs_safe():
    ns = NodeStats(0)
    assert ns.am_miss_rate() == 0.0
    assert ns.injections_per_10k_refs() == 0.0


def test_injections_per_10k():
    ns = NodeStats(0)
    ns.refs = 20_000
    ns.injections[InjectionCause.WRITE_SHARED_CK] += 1
    ns.injections[InjectionCause.READ_INV_CK] += 1
    assert ns.injections_per_10k_refs() == pytest.approx(1.0)
    assert ns.injections_per_10k_refs({InjectionCause.READ_INV_CK}) == pytest.approx(0.5)


def test_machine_stats_aggregation():
    ms = MachineStats(node_stats=[NodeStats(0), NodeStats(1)])
    ms.node_stats[0].refs = 100
    ms.node_stats[1].refs = 50
    ms.node_stats[0].reads = 80
    assert ms.refs == 150
    assert ms.reads == 80
    assert ms.total("refs") == 150


def test_compute_cycles_decomposition():
    ms = MachineStats()
    ms.total_cycles = 1000
    ms.create_cycles = 100
    ms.commit_cycles = 50
    ms.recovery_cycles = 25
    assert ms.compute_cycles == 825


def test_replication_throughput():
    ms = MachineStats(node_stats=[NodeStats(0)])
    ms.create_cycles = 20_000_000  # one second at 20 MHz
    ms.node_stats[0].ckpt_bytes_replicated = 5_000_000
    assert ms.replication_throughput_bytes_per_s(50e-9) == pytest.approx(5e6)
    assert ms.per_node_replication_throughput(50e-9) == pytest.approx(5e6)


def test_throughput_zero_safe():
    ms = MachineStats()
    assert ms.replication_throughput_bytes_per_s(50e-9) == 0.0
    assert ms.per_node_replication_throughput(50e-9) == 0.0


def test_injection_totals():
    ms = MachineStats(node_stats=[NodeStats(0), NodeStats(1)])
    ms.node_stats[0].injections[InjectionCause.WRITE_SHARED_CK] += 1
    ms.node_stats[1].injections[InjectionCause.WRITE_SHARED_CK] += 1
    assert ms.injection_totals()[InjectionCause.WRITE_SHARED_CK] == 2


def test_mean_rates_skip_idle_nodes():
    a, b = NodeStats(0), NodeStats(1)
    a.refs = 100
    a.am_read_misses = 10
    a.reads = 100
    ms = MachineStats(node_stats=[a, b])
    assert ms.mean_am_miss_rate() == pytest.approx(0.1)


# ------------------------------------------------------------ report

def test_format_table_alignment():
    text = format_table(["col", "value"], [("a", 1), ("bb", 22)])
    lines = text.splitlines()
    assert len(lines) == 4
    assert lines[0].startswith("col")
    assert all(len(line) == len(lines[0]) for line in lines[1:])


def test_format_table_title_and_floats():
    text = format_table(["x"], [(3.14159,)], title="numbers")
    assert text.splitlines()[0] == "numbers"
    assert "3.142" in text


def test_format_table_rejects_ragged_rows():
    with pytest.raises(ValueError):
        format_table(["a", "b"], [(1,)])


def test_format_percent():
    assert format_percent(0.155) == "15.5%"
    assert format_percent(0.1234, digits=2) == "12.34%"


def test_format_bytes():
    assert format_bytes(512) == "512 B"
    assert format_bytes(2048) == "2.0 KB"
    assert format_bytes(3 * 1024 * 1024) == "3.0 MB"
