"""The environment fingerprint the end-to-end benchmark stamps on every
report (``benchmarks/e2e/harness.py`` imports it from this exact path,
and ``compare.py`` refuses to compare reports whose fingerprints, less
the version, differ)."""

from __future__ import annotations

import json

from repro import __version__


def test_fingerprint_is_importable_from_its_benchmark_path():
    from repro.perf.bench import environment_fingerprint

    fingerprint = environment_fingerprint()
    assert set(fingerprint) == {
        "python", "implementation", "platform", "machine", "cpu_count",
        "repro_version",
    }
    assert fingerprint["repro_version"] == __version__
    # it is written into the JSON report as is
    assert json.loads(json.dumps(fingerprint)) == fingerprint
