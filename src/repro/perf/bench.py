"""Where a benchmark ran.

The end-to-end benchmark (``benchmarks/e2e/``) stamps every report with
:func:`environment_fingerprint`, and its ``compare.py`` refuses to
compare reports whose fingerprints, less the version, differ.
"""

from __future__ import annotations

import os
import platform

from repro import __version__


def environment_fingerprint() -> dict:
    """Where these numbers were measured (numbers only compare within
    comparable environments)."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "repro_version": __version__,
    }
