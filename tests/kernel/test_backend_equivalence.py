"""End-to-end backend equivalence: the golden-digest contract, asserted
as full comparable-result equality on cells the digests don't pin —
larger machines, every recovery strategy, lossy transport, and elastic
membership.  Also pins the deliberate *absence* of the backend from the
orchestration cache key: results are backend-invariant, so cached cells
stay valid whichever backend computed them."""

import pytest

from repro.config import ArchConfig
from repro.fault.failures import FailurePlan, MembershipEvent
from repro.kernel import available_backends, get_default_backend, set_default_backend
from repro.machine import Machine
from repro.orch.serialize import comparable_result_dict
from repro.orch.task import TaskSpec
from repro.workloads.registry import make_workload
from repro.workloads.synthetic import UniformShared
from tests.helpers import small_config

#: Backends to diff against the reference interpreter.
FAST_BACKENDS = tuple(n for n in available_backends() if n != "python")

if not FAST_BACKENDS:  # pragma: no cover - minimal environments
    pytest.skip("no accelerated backend available", allow_module_level=True)


def _water_machine(n_nodes, backend, **kw):
    cfg = ArchConfig(n_nodes=n_nodes, seed=2026).with_ft(
        checkpoint_frequency_hz=100.0
    )
    loss_rate = kw.pop("loss_rate", 0.0)
    if loss_rate:
        cfg = cfg.with_transport(loss_rate=loss_rate)
    wl = make_workload("water", n_procs=n_nodes, scale=0.002, seed=2026)
    return Machine(cfg, wl, protocol="ecp", backend=backend, **kw)


def _compare(build):
    """Run ``build(backend)`` per backend and diff comparable results;
    returns the python reference's."""
    reference = comparable_result_dict(build("python").run())
    for backend in FAST_BACKENDS:
        candidate = comparable_result_dict(build(backend).run())
        assert candidate == reference, (
            f"backend {backend!r} diverged from the python reference"
        )
    return reference


@pytest.mark.parametrize("n_nodes", (9, 25))
def test_fault_free_runs_equivalent(n_nodes):
    _compare(lambda backend: _water_machine(n_nodes, backend))


def test_write_heavy_zipf_equivalent():
    """The write-heavy miss path: ownership transfer, invalidations and
    one establishment injecting the written items' recovery copies."""

    def build(backend):
        cfg = ArchConfig(n_nodes=9, seed=2026).with_ft(
            checkpoint_frequency_hz=1000.0
        )
        wl = make_workload("zipf", n_procs=9, scale=0.001, seed=2026,
                           skew=0.99, write_fraction=0.5)
        return Machine(cfg, wl, protocol="ecp", backend=backend)

    assert _compare(build)["stats"]["n_checkpoints"] == 1


@pytest.mark.parametrize("app", ("barnes", "mp3d"))
def test_shared_addr_callback_equivalent(app):
    """Barnes and Mp3d generate their shared references by calling back
    into the workload's ``_shared_addr`` from the C block loop; Mp3d's
    are the suite's most frequent shared writes."""

    def build(backend):
        cfg = ArchConfig(n_nodes=9, seed=2026).with_ft(
            checkpoint_frequency_hz=400.0
        )
        wl = make_workload(app, n_procs=9, scale=0.002, seed=2026)
        return Machine(cfg, wl, protocol="ecp", backend=backend)

    assert _compare(build)["stats"]["n_checkpoints"] == 1


def test_lossy_transport_equivalent():
    _compare(lambda backend: _water_machine(9, backend, loss_rate=0.01))


@pytest.mark.parametrize("strategy", ("ecp", "pooled", "recompute"))
def test_recovery_strategies_equivalent(strategy):
    """A transient failure forces an actual recovery under each
    strategy; the drained-hit and block-generation fast paths must not
    perturb checkpoint or rollback state."""

    def build(backend):
        return _water_machine(
            9, backend,
            recovery_strategy=strategy,
            failure_plan=[FailurePlan(time=6_000, node=2, repair_delay=1_500)],
        )

    _compare(build)


def test_rolling_membership_equivalent():
    """Mid-run joins and a leader handoff re-wire streams while blocks
    are cached; the caches must stay coherent with migration."""

    def build(backend):
        cfg = small_config(4).with_ft(
            checkpoint_period_override=3_000, detection_latency=200
        )
        wl = UniformShared(
            4, refs_per_proc=400, write_fraction=0.3, window_items=12, seed=11
        )
        return Machine(
            cfg, wl, protocol="ecp", backend=backend,
            initial_members=3,
            membership_plan=[
                MembershipEvent(time=4_000, kind="join", node=3),
                MembershipEvent(time=9_000, kind="handoff"),
            ],
            stall_cycle_budget=300_000,
        )

    _compare(build)


def test_task_spec_key_is_backend_invariant():
    """The cache key must not change with the process-default backend,
    and the serialized spec must not mention one: a cell computed on
    any backend is the same cell."""
    spec = TaskSpec(protocol="ecp", app="water", n_nodes=9, scale=0.002,
                    seed=2026, frequency_hz=100.0)
    before = get_default_backend()
    try:
        set_default_backend("python")
        key_python = spec.key
        dict_python = spec.to_dict()
        set_default_backend("auto")
        assert spec.key == key_python
        assert spec.to_dict() == dict_python
        assert "backend" not in dict_python
    finally:
        set_default_backend(before)
