"""Fault-tolerant sweep orchestration.

The evaluation grid of the paper (apps x protocols x node counts x
recovery-point frequencies) is itself a long-running parallel
computation, so this package gives the experiment harness the same
backward-error-recovery properties the paper gives the COMA machine:

- :mod:`repro.orch.task` — content-addressed cell identity
  (:class:`TaskSpec`);
- :mod:`repro.orch.store` — a disk-backed result store with atomic
  writes and versioned invalidation (:class:`ResultStore`);
- :mod:`repro.orch.journal` — an append-only JSONL run log that makes
  ``--resume`` exact after any crash (:class:`Journal`);
- :mod:`repro.orch.executor` — the one scheduling core (timeout,
  bounded retry, reassignment, serial fallback) over in-process,
  process-pool and worker-socket transports;
- :mod:`repro.orch.orchestrator` — the policy layer tying them
  together (:class:`Orchestrator`).
"""

from repro.orch.executor import LocalExecutor, TaskOutcome, run_tasks
from repro.orch.journal import Journal
from repro.orch.orchestrator import (
    CellRecord,
    Orchestrator,
    ProgressEvent,
    SweepReport,
    execute_spec_payload,
)
from repro.orch.serialize import (
    comparable_payload,
    comparable_result_dict,
    config_from_dict,
    config_to_dict,
    run_result_from_dict,
    run_result_to_dict,
)
from repro.orch.store import (
    CacheError,
    CacheStats,
    DEFAULT_CACHE_DIR,
    GC_KEEP_DAYS_DEFAULT,
    GCReport,
    STORE_SCHEMA_VERSION,
    ResultStore,
    StoreSummary,
    cache_enabled,
    default_store,
)
from repro.orch.task import SPEC_VERSION, TaskSpec

__all__ = [
    "CacheError",
    "CacheStats",
    "CellRecord",
    "DEFAULT_CACHE_DIR",
    "GC_KEEP_DAYS_DEFAULT",
    "GCReport",
    "Journal",
    "LocalExecutor",
    "Orchestrator",
    "ProgressEvent",
    "ResultStore",
    "SPEC_VERSION",
    "STORE_SCHEMA_VERSION",
    "StoreSummary",
    "SweepReport",
    "TaskOutcome",
    "TaskSpec",
    "cache_enabled",
    "comparable_payload",
    "comparable_result_dict",
    "config_from_dict",
    "config_to_dict",
    "default_store",
    "execute_spec_payload",
    "run_result_from_dict",
    "run_result_to_dict",
    "run_tasks",
]
