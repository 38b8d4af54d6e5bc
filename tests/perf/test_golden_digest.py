"""Golden-digest determinism gate for the optimized simulation kernel.

The committed digests under ``tests/perf/golden/`` were captured on the
*pre-optimization* kernel.  Every cell — including the lossy ones,
which exercise the transport's retry loop under every link fault —
must keep producing the byte-identical comparable result: the perf work
is only admissible because it is invisible to results.

If a digest mismatches, the kernel's behaviour changed.  Never regenerate
the goldens to make this test pass unless the behaviour change is itself
the point of a change (and reviewed as such):

    PYTHONPATH=src python -m repro.perf.golden --write
"""

import pytest

from repro.kernel import available_backends
from repro.perf.golden import GOLDEN_CELLS, result_digest


@pytest.mark.parametrize("backend", available_backends())
@pytest.mark.parametrize("cell", GOLDEN_CELLS, ids=lambda c: c.name)
def test_golden_digest_matches_committed(cell, backend):
    committed = cell.digest_path.read_text().strip()
    assert len(committed) == 64, f"malformed digest file {cell.digest_path}"
    result = cell.build(backend=backend).run()
    assert result_digest(result) == committed, (
        f"{cell.name} [{backend}]: simulation result diverged from the "
        f"committed golden digest — the kernel is no longer bit-identical"
    )


def test_golden_cells_cover_fault_free_and_lossy():
    """The gate must cover both kernels-of-interest: the pure fast path
    and the retry machinery under packet loss, with one cell where every
    link fault (loss, duplication, reordering, outage) is live."""
    losses = sorted(cell.loss_rate for cell in GOLDEN_CELLS)
    assert losses[0] == 0.0
    assert losses[-1] > 0.0
    assert any(
        cell.loss_rate and cell.dup_rate and cell.reorder_rate
        and cell.outage_rate
        for cell in GOLDEN_CELLS
    )


def test_digest_is_insensitive_to_wall_clock():
    """The digest must hash only simulation-determined fields."""
    cell = GOLDEN_CELLS[0]
    result = cell.build().run()
    a = result_digest(result)
    result.wall_seconds = (result.wall_seconds or 0.0) + 123.0
    assert result_digest(result) == a
