"""The compiled backend on an interpreter where numpy cannot be
imported: it must be available, digest-identical and drain hits in C,
and nothing in the simulator may import numpy."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.kernel import compiled

if compiled.CompiledBackend.availability_error() is not None:  # pragma: no cover
    pytest.skip("the _hotloops extension is not built", allow_module_level=True)

SRC = Path(compiled.__file__).resolve().parents[2]

#: Runs in a fresh interpreter; ``sys.modules["numpy"] = None`` makes
#: every ``import numpy`` raise ImportError, and the ``__import__`` hook
#: records each attempt, including one whose ImportError is caught.
SCRIPT = """
import builtins, json, sys
sys.modules["numpy"] = None
attempts = []
_import = builtins.__import__

def recording_import(name, *args, **kwargs):
    if name == "numpy" or name.startswith("numpy."):
        attempts.append(name)
    return _import(name, *args, **kwargs)

builtins.__import__ = recording_import

from repro.kernel import available_backends
from repro.perf.golden import GOLDEN_CELLS, result_digest

cell = next(c for c in GOLDEN_CELLS if c.name == "water9_faultfree")
machine = cell.build(backend="compiled")
drain = machine.kernel_drain
drained = 0

def counted(node, stream, t_local, deadline):
    global drained
    hits, t_local = drain(node, stream, t_local, deadline)
    drained += hits
    return hits, t_local

machine.kernel_drain = counted
digest = result_digest(machine.run())
print(json.dumps({
    "backends": list(available_backends()),
    "digest": digest,
    "drained": drained,
    "numpy_imports": attempts,
}))
"""


def test_compiled_backend_runs_without_numpy():
    from repro.perf.golden import GOLDEN_CELLS

    cell = next(c for c in GOLDEN_CELLS if c.name == "water9_faultfree")
    child = subprocess.run(
        [sys.executable, "-c", SCRIPT], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=300,
    )
    assert child.returncode == 0, child.stderr
    report = json.loads(child.stdout.strip().splitlines()[-1])
    assert report["backends"] == ["compiled", "python"]
    assert report["digest"] == cell.digest_path.read_text().strip()
    assert report["drained"] > 0
    assert report["numpy_imports"] == []
