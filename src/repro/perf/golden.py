"""The seeded determinism contract for kernel fast paths.

Every optimisation in this package's remit — batched event dispatch,
fabric fast-forward, memoized protocol lookups — must keep results
**bit-identical**: the same seed and config must produce the same
:func:`repro.orch.serialize.comparable_result_dict`.  This module pins
that contract with golden digests:

- :data:`GOLDEN_CELLS` names small reference runs (a fault-free 9-node
  water cell, the same cell on a 1%-loss interconnect, where the fabric
  fast-forward must coexist with retransmission accounting, and on one
  where every link fault is live);
- :func:`result_digest` reduces a run result to a sha256 over the
  canonical JSON of its comparable dict;
- the digests live in ``tests/perf/golden/`` and are asserted by
  ``tests/perf/test_golden_digest.py``.

The committed digests were captured on the **pre-optimisation** kernel,
so the test passing proves the fast paths changed nothing observable.
Regenerate (only when a deliberate semantic change lands) with::

    PYTHONPATH=src python -m repro.perf.golden --write
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

from repro.config import ArchConfig
from repro.machine import Machine, RunResult
from repro.orch.serialize import comparable_result_dict
from repro.workloads.registry import make_workload

#: Where the committed digests live, relative to the repo root.
GOLDEN_DIR = Path(__file__).resolve().parents[3] / "tests" / "perf" / "golden"


@dataclass(frozen=True)
class GoldenCell:
    """One pinned reference configuration."""

    name: str
    app: str = "water"
    n_nodes: int = 9
    scale: float = 0.004
    seed: int = 2026
    protocol: str = "ecp"
    checkpoint_frequency_hz: float = 100.0
    loss_rate: float = 0.0
    dup_rate: float = 0.0
    reorder_rate: float = 0.0
    outage_rate: float = 0.0

    def build(self, backend: str | None = None) -> Machine:
        """Construct the cell's machine, optionally pinning a kernel
        backend (``None`` follows the process default — the digests are
        backend-invariant by contract, so any value must verify)."""
        cfg = ArchConfig(n_nodes=self.n_nodes, seed=self.seed)
        if self.protocol == "ecp":
            cfg = cfg.with_ft(
                checkpoint_frequency_hz=self.checkpoint_frequency_hz
            )
        cfg = cfg.with_transport(
            loss_rate=self.loss_rate, dup_rate=self.dup_rate,
            reorder_rate=self.reorder_rate, outage_rate=self.outage_rate,
        )
        if self.app == "trace":
            # replayed-trace cell: record the water streams in memory
            # and replay them through TraceWorkload, pinning the trace
            # replay machinery (no C block generator exists for it, so
            # it also pins the scalar block-materialisation fallback)
            from repro.workloads.traces import TraceWorkload, record_trace

            source = make_workload(
                "water", n_procs=self.n_nodes, scale=self.scale,
                seed=self.seed,
            )
            wl = TraceWorkload(
                record_trace(source), shared_base=source.shared_base
            )
        else:
            wl = make_workload(
                self.app, n_procs=self.n_nodes, scale=self.scale,
                seed=self.seed,
            )
        return Machine(cfg, wl, protocol=self.protocol, backend=backend)

    @property
    def digest_path(self) -> Path:
        return GOLDEN_DIR / f"{self.name}.sha256"


#: The pinned cells.  The lossy cell matters doubly: the fabric
#: fast-forward must stay exact under retransmission traffic, and the
#: transport's retry and backoff bookkeeping must not perturb the
#: seeded loss draws.
GOLDEN_CELLS = (
    GoldenCell(name="water9_faultfree"),
    GoldenCell(name="water9_loss1pct", loss_rate=0.01),
    # the whole link-fault mix: duplicates, reordering and outages take
    # transport branches (suppression, delayed arrival, path-wide drops)
    # that loss alone never reaches
    GoldenCell(
        name="water9_faultmix", loss_rate=0.01, dup_rate=0.01,
        reorder_rate=0.01, outage_rate=0.001,
    ),
    # datacenter traffic: a skewed KV stream pins the hot-key coherence
    # pattern (and the Zipf sampler's bit-exactness) the same way
    GoldenCell(name="zipf9_faultfree", app="zipf"),
    # the streaming scan pins the attraction-memory pressure path and
    # the scan family's C block generator
    GoldenCell(name="scan9_faultfree", app="scan"),
    # a replayed trace pins the trace machinery and the scalar
    # block-materialisation fallback (traces have no C block generator)
    GoldenCell(name="trace9_faultfree", app="trace"),
)


def reference_run(cell: GoldenCell) -> RunResult:
    """Build and run one golden cell."""
    return cell.build().run()


def result_digest(result: RunResult) -> str:
    """sha256 over the canonical JSON of the comparable result dict."""
    canonical = json.dumps(
        comparable_result_dict(result),
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def main(argv: list[str] | None = None) -> int:  # pragma: no cover - thin CLI
    """Regenerate or check the committed digests."""
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--write", action="store_true",
        help="overwrite the committed digests with freshly computed ones",
    )
    parser.add_argument(
        "--backend", default=None,
        help="kernel backend to run the cells under (default: the "
        "process default; every backend must match the same digests)",
    )
    args = parser.parse_args(argv)
    status = 0
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for cell in GOLDEN_CELLS:
        digest = result_digest(cell.build(backend=args.backend).run())
        if args.write:
            cell.digest_path.write_text(digest + "\n", encoding="utf-8")
            print(f"{cell.name}: wrote {digest}")
        elif not cell.digest_path.exists():
            print(f"{cell.name}: no committed digest (run with --write)")
            status = 1
        else:
            committed = cell.digest_path.read_text(encoding="utf-8").strip()
            ok = committed == digest
            print(f"{cell.name}: {'OK' if ok else 'MISMATCH'} ({digest})")
            status = status or (0 if ok else 1)
    return status


if __name__ == "__main__":  # pragma: no cover
    import sys

    sys.exit(main())
