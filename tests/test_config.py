"""Unit tests for the architecture configuration and Table 2
calibration."""

import pytest

from repro.config import (
    AMConfig,
    ArchConfig,
    CacheConfig,
    PAPER_FREQUENCIES_HZ,
    PAPER_NODE_COUNTS,
    mesh_dimensions,
)


def test_paper_defaults():
    cfg = ArchConfig()
    assert cfg.clock_hz == 20_000_000
    assert cfg.cycle_seconds == pytest.approx(50e-9)
    assert cfg.cache.size_bytes == 256 * 1024
    assert cfg.cache.sector_bytes == 2048
    assert cfg.cache.line_bytes == 64
    assert cfg.am.size_bytes == 8 * 1024 * 1024
    assert cfg.am.page_bytes == 16 * 1024
    assert cfg.am.item_bytes == 128
    assert cfg.am.items_per_page == 128
    assert cfg.am.reserved_frames_per_page == 4


def test_table2_calibration():
    cfg = ArchConfig()
    assert cfg.latency.cache_hit == 1
    assert cfg.latency.local_am_fill == 18
    assert cfg.remote_fill_cycles(1) == 116
    assert cfg.remote_fill_cycles(2) == 124
    # +8 cycles per extra hop, as in the paper
    for h in range(1, 6):
        assert cfg.remote_fill_cycles(h + 1) - cfg.remote_fill_cycles(h) == 8


def test_item_flits():
    lat = ArchConfig().latency
    assert lat.item_flits(128) == 32  # 32-bit flits


def test_mesh_dimensions_paper_sizes():
    assert mesh_dimensions(9) == (3, 3)
    assert mesh_dimensions(16) == (4, 4)
    assert mesh_dimensions(30) in ((5, 6), (6, 5))
    assert mesh_dimensions(42) in ((6, 7), (7, 6))
    assert mesh_dimensions(56) in ((7, 8), (8, 7))


def test_mesh_dimensions_rejects_primes_and_nonpositive():
    with pytest.raises(ValueError):
        mesh_dimensions(13)
    with pytest.raises(ValueError):
        mesh_dimensions(0)
    # tiny machines are allowed even when linear
    assert mesh_dimensions(2) == (1, 2) or mesh_dimensions(2) == (2, 1)


def test_addressing_helpers():
    cfg = ArchConfig()
    assert cfg.item_of(0) == 0
    assert cfg.item_of(127) == 0
    assert cfg.item_of(128) == 1
    assert cfg.page_of(16 * 1024) == 1
    assert cfg.page_of_item(128) == 1


def test_checkpoint_period_cycles():
    cfg = ArchConfig().with_ft(checkpoint_frequency_hz=400)
    assert cfg.checkpoint_period_cycles() == 50_000
    cfg = cfg.with_ft(checkpoint_frequency_hz=400, frequency_compression=10)
    assert cfg.checkpoint_period_cycles() == 5_000
    cfg = cfg.with_ft(checkpoint_period_override=1234)
    assert cfg.checkpoint_period_cycles() == 1234


def test_checkpoint_period_references():
    cfg = ArchConfig().with_ft(checkpoint_frequency_hz=400)
    # mp3d density 0.26: 50_000 instructions -> 13_000 references
    assert cfg.checkpoint_period_references(0.26) == 13_000


def test_with_helpers_are_nonmutating():
    cfg = ArchConfig()
    cfg2 = cfg.with_ft(checkpoint_frequency_hz=5)
    assert cfg.ft.checkpoint_frequency_hz == 100.0
    assert cfg2.ft.checkpoint_frequency_hz == 5
    cfg3 = cfg.with_(n_nodes=9)
    assert cfg3.n_nodes == 9
    assert cfg.n_nodes == 16


def test_invalid_configs_rejected():
    with pytest.raises(ValueError):
        ArchConfig(n_nodes=13)  # prime mesh
    with pytest.raises(ValueError):
        ArchConfig(scale=0)
    with pytest.raises(ValueError):
        ArchConfig(am=AMConfig(size_bytes=100))
    with pytest.raises(ValueError):
        ArchConfig(cache=CacheConfig(sector_bytes=100))


def test_reordering_needs_a_positive_max_delay():
    """A reordered packet's delay is drawn from [1, reorder_max_delay]:
    a zero ceiling must fail at configuration time, naming the field,
    not as an empty ``randrange`` on the first reordered packet."""
    with pytest.raises(ValueError, match="reorder_max_delay"):
        ArchConfig().with_transport(reorder_rate=0.05, reorder_max_delay=0)
    # without reordering the ceiling is never drawn from
    ArchConfig().with_transport(reorder_max_delay=0)
    ArchConfig().with_transport(reorder_rate=0.05, reorder_max_delay=1)


def test_paper_sweep_constants():
    assert PAPER_FREQUENCIES_HZ == (400.0, 100.0, 20.0, 5.0)
    assert PAPER_NODE_COUNTS == (9, 16, 30, 42, 56)


def test_cycles_to_seconds():
    cfg = ArchConfig()
    assert cfg.cycles_to_seconds(20_000_000) == pytest.approx(1.0)


def test_transfer_cycles():
    cfg = ArchConfig()
    assert cfg.transfer_cycles(1, 4) == 8
    assert cfg.transfer_cycles(3, 36) == 48
