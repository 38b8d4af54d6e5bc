"""Tests for trace persistence, CSV/JSON export and heartbeat
detection."""

import json

import pytest

from tests.helpers import small_config
from repro.fault.detection import attach_heartbeat_monitor, heartbeat_monitor
from repro.fault.failures import FailurePlan
from repro.machine import Machine
from repro.stats.export import load_rows_csv, rows_to_csv, rows_to_json
from repro.workloads.base import Reference
from repro.workloads.synthetic import PrivateOnly
from repro.workloads.tracefile import load_stream_trace, write_stream_trace
from repro.workloads.traces import TraceWorkload


# ------------------------------------------------------------ trace files

def test_trace_roundtrip(tmp_path):
    traces = [
        [Reference(2, False, 0), Reference(3, True, 128)],
        [Reference(1, False, 256), Reference(4, False, 384)],
    ]
    path = tmp_path / "trace.gz"
    write_stream_trace(TraceWorkload(traces, shared_base=256), path)
    wl = load_stream_trace(path)
    assert wl.n_procs == 2
    assert wl.ref_at(0, 1) == Reference(3, True, 128)
    assert wl.shared_base == 256
    assert wl.is_shared_addr(256)
    assert not wl.is_shared_addr(0)
    wl.close()


def test_export_workload(tmp_path):
    src = PrivateOnly(2, refs_per_proc=20)
    path = tmp_path / "wl.gz"
    assert write_stream_trace(src, path, max_refs_per_proc=10) == 10
    replay = load_stream_trace(path)
    assert replay.refs_per_proc() == 10
    for proc in range(2):
        for i in range(10):
            assert replay.ref_at(proc, i) == src.ref_at(proc, i)
    replay.close()


# ------------------------------------------------------------ CSV / JSON export

def test_csv_roundtrip(tmp_path):
    path = tmp_path / "rows.csv"
    rows_to_csv(["app", "value"], [("water", 1.5), ("mp3d", 2.5)], path)
    headers, rows = load_rows_csv(path)
    assert headers == ["app", "value"]
    assert rows == [["water", "1.5"], ["mp3d", "2.5"]]


def test_json_export(tmp_path):
    path = tmp_path / "rows.json"
    rows_to_json(["app", "value"], [("water", 1)], path)
    records = json.loads(path.read_text())
    assert records == [{"app": "water", "value": 1}]


def test_export_rejects_ragged_rows(tmp_path):
    with pytest.raises(ValueError):
        rows_to_csv(["a", "b"], [(1,)], tmp_path / "x.csv")
    with pytest.raises(ValueError):
        rows_to_json(["a"], [(1, 2)], tmp_path / "x.json")


# ------------------------------------------------------------ heartbeat detection

def test_heartbeat_detects_failure_without_configured_latency():
    # make the built-in detection effectively never fire; the heartbeat
    # monitor must catch the failure instead
    cfg = small_config(6).with_ft(
        checkpoint_period_override=8_000,
        detection_latency=10_000_000,
    )
    wl = PrivateOnly(6, refs_per_proc=4000, think=4)
    machine = Machine(
        cfg, wl, protocol="ecp",
        failure_plan=[FailurePlan(time=20_000, node=2, repair_delay=500)],
    )
    attach_heartbeat_monitor(machine, period=1_000)
    result = machine.run()
    assert result.stats.n_recoveries == 1
    assert all(s.exhausted for s in machine.all_streams())
    machine.check_invariants()


def test_heartbeat_invalid_period():
    machine = Machine(
        small_config(4), PrivateOnly(4, refs_per_proc=10), protocol="ecp"
    )
    with pytest.raises(ValueError):
        list(heartbeat_monitor(machine, period=0))


def test_extra_processes_started():
    cfg = small_config(4)
    wl = PrivateOnly(4, refs_per_proc=100)
    machine = Machine(cfg, wl, protocol="standard")
    ticks = []

    def ticker():
        while machine.coordinator.active:
            yield 50
            ticks.append(machine.engine.now)

    machine.extra_processes.append(("ticker", ticker()))
    machine.run()
    assert ticks  # the custom process ran alongside the machine
