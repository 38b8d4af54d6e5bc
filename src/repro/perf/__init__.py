"""Simulation-kernel performance support.

Speed is measured by the end-to-end benchmark in ``benchmarks/e2e/``
(``run.py``, ``compare.py``; docs/PERF.md), which drives the simulator
through its public API.  This package holds what it and the kernel's
fast paths rely on:

:mod:`repro.perf.bench`
    :func:`~repro.perf.bench.environment_fingerprint`, the record of
    where a benchmark report was measured.

:mod:`repro.perf.golden`
    The seeded determinism contract: reference runs whose
    ``comparable_result_dict`` digests are committed to
    ``tests/perf/golden/`` and asserted identical before and after any
    kernel fast path (fault-free and lossy-transport cells).
"""

from repro.perf.golden import (  # noqa: F401
    GOLDEN_CELLS,
    reference_run,
    result_digest,
)
