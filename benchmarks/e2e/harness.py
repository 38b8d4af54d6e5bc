"""The end-to-end benchmark's workloads and its one-repeat child.

A *repeat* builds one workload from a seed, runs it once and measures
it.  ``run.py`` starts every repeat in a fresh interpreter by running
this file::

    python benchmarks/e2e/harness.py WORKLOAD SEED TRACE

which prints one JSON object (the repeat's sample) on stdout.  Set-up
time is taken from the first statement of :func:`main`, before
``repro`` is imported, so it includes the import, backend negotiation,
workload generation and machine (or campaign) construction.  Untraced
repeats run under the host-speed probe (``probe.py``), which gives
every interval in reference seconds as well as wall seconds.

The functions below are also called in-process by ``selfcheck.py``
with shrunken workload specs; nothing here reads a size from the
command line.

The program is touched only through its public API: ``Machine``,
``make_workload``, ``CampaignConfig``/``CampaignRunner``,
``ResultStore``, ``result_digest``/``comparable_payload`` and the
kernel backend registry.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import tempfile
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import ClassVar
from pathlib import Path

from probe import SpeedProbe

#: The seed the pinned digests in ``expected.json`` were taken with.
DEFAULT_SEED = 2026

#: Repository root (``benchmarks/e2e/harness.py`` -> root).
ROOT = Path(__file__).resolve().parents[2]

#: Scratch space for campaign result stores and compiler temporaries;
#: inside the checkout so the benchmark writes nowhere else.
SCRATCH = ROOT / ".bench_tmp"


@dataclass(frozen=True)
class MachineSpec:
    """One ``Machine.run`` on a registered workload (ECP protocol)."""

    app: str
    n_nodes: int
    scale: float
    checkpoint_hz: float
    workload_kw: dict = field(default_factory=dict)
    kind: ClassVar[str] = "machine"


@dataclass(frozen=True)
class CampaignSpec:
    """One fault-injection campaign, run serially in-process."""

    app: str
    cells: int
    loss_rate: float
    mtbf_cycles: int
    target_phase: str
    refs_per_proc: int
    kind: ClassVar[str] = "campaign"


#: The fixed workloads.  Each stresses a different set of layers; the
#: README gives the layer-by-workload table.
WORKLOADS = {
    # 97.7% of references are processor-cache hits drained in C, at the
    # paper's highest recovery-point frequency (11 establishments):
    # block generation, the hit drain and establishment; the miss
    # protocol is barely used.
    "water_ckpt400": MachineSpec(
        app="water", n_nodes=16, scale=0.1, checkpoint_hz=400.0,
    ),
    # miss-bound reads of Master-Shared/Shared-CK1 copies over the
    # fault-free transport passthrough; bypasses the hit drain.  At
    # 25 Hz no establishment falls inside the run for any seed, so
    # checkpointing is bypassed too.  (At 100 Hz one does for some
    # seeds and not for others, which moves time and peak memory by
    # seed.)
    "zipf_read": MachineSpec(
        app="zipf", n_nodes=16, scale=0.005, checkpoint_hz=25.0,
        workload_kw={"skew": 0.99, "write_fraction": 0.05},
    ),
    # the same keys written half the time: ownership transfer and
    # invalidations, and at 400 Hz one establishment for every seed
    # that injects the recovery copies of the written items.
    "zipf_write": MachineSpec(
        app="zipf", n_nodes=16, scale=0.003, checkpoint_hz=400.0,
        workload_kw={"skew": 0.99, "write_fraction": 0.5},
    ),
    # seven 8-node zipf cells on a 1%-loss interconnect, each failing a
    # node once and again inside the reconfiguration that recovery
    # runs: two recoveries, reconfiguration, the transport retry path,
    # per-cell construction and the result store.  Timed failures are
    # off (huge MTBF) and every cell aims at the same window, so every
    # cell recovers and a campaign's work hardly depends on the seed;
    # in a mixed campaign the recovery-scan cell ends at once for three
    # seeds in four and runs in full for the rest, moving cells/s by
    # a seventh.
    "campaign_lossy": CampaignSpec(
        app="zipf", cells=7, loss_rate=0.01, mtbf_cycles=10**9,
        target_phase="reconfig", refs_per_proc=1_500,
    ),
}

def machine_counts(machine) -> dict:
    """The per-layer work counts of one finished machine, read from
    ``MachineStats``, the fabric and the engine.  They are
    deterministic: a speed-only change must leave them equal."""
    stats = machine.stats
    return {
        "sim.refs": stats.refs,
        "sim.cycles": stats.total_cycles,
        "sim.events": machine.engine.events_dispatched,
        "sim.am_misses": stats.total("am_read_misses")
        + stats.total("am_write_misses"),
        "sim.injections": sum(stats.injection_totals().values()),
        "sim.checkpoints": stats.n_checkpoints,
        "sim.recoveries": stats.n_recoveries,
        "sim.transport_retries": stats.transport_retries,
        "sim.flit_hops": machine.fabric.flits_carried,
    }


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _sha256(obj) -> str:
    canonical = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def build_machine(spec: MachineSpec, seed: int):
    """The workload's machine, built on the process-default backend."""
    from repro.config import ArchConfig
    from repro.machine import Machine
    from repro.workloads.registry import make_workload

    cfg = ArchConfig(n_nodes=spec.n_nodes, seed=seed).with_ft(
        checkpoint_frequency_hz=spec.checkpoint_hz
    )
    workload = make_workload(
        spec.app, n_procs=spec.n_nodes, scale=spec.scale, seed=seed,
        **spec.workload_kw,
    )
    return Machine(cfg, workload, protocol="ecp")


def run_machine(spec: MachineSpec, seed: int, tracer=None) -> dict:
    """Build, run and check one machine."""
    from repro.perf.golden import result_digest

    build = build_machine
    if tracer is not None:
        build = tracer.wrap("machine.build", build_machine)
    b0 = time.perf_counter()
    machine = build(spec, seed)
    b1 = time.perf_counter()
    if tracer is not None:
        tracer.instrument_machine(machine)
    r0 = time.perf_counter()
    result = machine.run()
    r1 = time.perf_counter()
    peak_rss_mb = _peak_rss_mb()
    errors = []
    unfinished = [s.proc_id for s in machine.all_streams() if not s.exhausted]
    if unfinished:
        errors.append(f"run ended with unexhausted streams {unfinished[:8]}")
    try:
        machine.check_invariants()
    except AssertionError as exc:
        errors.append(f"invariant violated: {exc}")
    counts = machine_counts(machine)
    return {
        "marks": (b0, b1, r0, r1),
        "peak_rss_mb": peak_rss_mb,
        "refs": counts["sim.refs"],
        "ops": 1,
        "op_walls": [r1 - r0],
        "digests": [result_digest(result)],
        "errors": [errors],
        "counts": counts,
    }


def build_campaign(spec: CampaignSpec, seed: int, store_root: Path):
    """The campaign runner over a fresh result store at ``store_root``."""
    from repro.fault.campaign import CampaignConfig, CampaignRunner
    from repro.orch.store import ResultStore

    config = CampaignConfig(
        seeds=spec.cells, app=spec.app, master_seed=seed,
        loss_rate=spec.loss_rate, mtbf_cycles=spec.mtbf_cycles,
        target_phase=spec.target_phase, refs_per_proc=spec.refs_per_proc,
    )
    return CampaignRunner(config, store=ResultStore(store_root))


def run_campaign(spec: CampaignSpec, seed: int, tracer=None) -> dict:
    """Build, run and check one campaign, serially in this process."""
    from repro.fault.campaign import CAMPAIGN_RECORD_KIND
    from repro.orch.serialize import comparable_payload

    SCRATCH.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=SCRATCH) as store_root:
        b0 = time.perf_counter()
        runner = build_campaign(spec, seed, Path(store_root))
        b1 = time.perf_counter()
        walls: dict[int, float] = {}

        def on_cell(event: dict) -> None:
            walls[event["index"]] = event["wall_seconds"]

        patch = nullcontext()
        if tracer is not None:
            tracer.instrument_runner(runner)
            patch = tracer.patch_campaign()
        r0 = time.perf_counter()
        with patch:
            report = runner.run(parallel=1, read_cache=False, on_cell=on_cell)
        r1 = time.perf_counter()
        peak_rss_mb = _peak_rss_mb()
        payloads = [
            runner.store.load_payload(cell.key, CAMPAIGN_RECORD_KIND)
            for cell in runner.cells
        ]
    failed_cells = {entry["index"]: entry["error"] for entry in report.failed}
    digests, errors = [], []
    for cell, payload in zip(runner.cells, payloads):
        cell_errors = []
        if cell.index in failed_cells:
            cell_errors.append(f"cell raised: {failed_cells[cell.index]}")
        elif payload is None:
            cell_errors.append("no stored record")
        elif payload["outcome"] in ("stalled", "simulator_bug"):
            cell_errors.append(f"{payload['outcome']}: {payload['detail']}")
        errors.append(cell_errors)
        digests.append(_sha256(comparable_payload(payload)))
    sample = {
        "marks": (b0, b1, r0, r1),
        "peak_rss_mb": peak_rss_mb,
        "refs": sum(p["refs"] for p in payloads if p is not None),
        "ops": len(runner.cells),
        "op_walls": [walls.get(cell.index, 0.0) for cell in runner.cells],
        "digests": digests,
        "errors": errors,
    }
    if tracer is not None:
        totals: Counter = Counter()
        for machine in tracer.machines:
            totals.update(machine_counts(machine))
        sample["counts"] = dict(totals)
    return sample


def run_repeat(name: str, spec, seed: int, t0: float, trace: bool,
               probe: SpeedProbe | None = None) -> dict:
    """One repeat of ``spec`` started at ``t0``: the sample ``run.py``
    aggregates.  Intervals are converted to reference seconds with
    ``probe``, which should be running since ``t0``."""
    from repro.kernel import set_default_backend
    from repro.perf.bench import environment_fingerprint

    # what `repro run`/`repro campaign` users get by default
    backend = set_default_backend("auto")
    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer()
    run_one = run_machine if spec.kind == "machine" else run_campaign
    sample = run_one(spec, seed, tracer)
    b0, b1, r0, r1 = sample.pop("marks")
    probe = probe or SpeedProbe()
    setup_s, setup_speed = probe.measure(t0, b1)
    build_s, _ = probe.measure(b0, b1)
    run_s, run_speed = probe.measure(r0, r1)
    sample.update(
        workload=name, seed=seed, backend=backend,
        environment=environment_fingerprint(),
        setup_s=setup_s, setup_ref_s=setup_s * setup_speed,
        build_s=build_s,
        run_s=run_s, run_ref_s=run_s * run_speed, host_speed=run_speed,
        # the wall time a traced repeat's outermost spans cover
        span_s=run_s + (build_s if spec.kind == "machine" else 0.0),
    )
    if tracer is not None:
        sample["trace"] = tracer.report()
    return sample


def use_checkout() -> None:
    """Import ``repro`` from this checkout's ``src``, never from an
    installed copy."""
    sys.path.insert(0, str(ROOT / "src"))
    import repro

    if Path(repro.__file__).resolve().parents[1] != ROOT / "src":
        raise ImportError(f"imported repro from {repro.__file__}, "
                          f"not from {ROOT / 'src'}")


def main(argv: list[str]) -> int:
    t0 = time.perf_counter()  # before `import repro`: part of set-up
    name, seed, trace = argv[0], int(argv[1]), argv[2] == "1"
    probe = None
    if not trace:
        # a traced repeat is not probed: the samples would land in
        # whichever span is open
        probe = SpeedProbe()
        probe.start()
    use_checkout()
    sample = run_repeat(name, WORKLOADS[name], seed, t0, trace, probe)
    if probe is not None:
        probe.stop()
    print(json.dumps(sample))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
