"""The compiled kernel backend.

Rides on the C extension :mod:`repro.kernel._hotloops` (built by
``python -m repro.kernel.build_ext``).  Two accelerations compose:

- **block generation** — streams are wrapped exactly as the vector
  backend wraps them (numpy generators when numpy is present, scalar
  block materialisation otherwise), because the drain loop needs
  materialised blocks to walk;
- **hit draining** — the processor's single-stream batch loop hands
  runs of consecutive cache hits to ``machine.kernel_drain``, a
  ``_hotloops.BatchDrain`` holding the machine's cache geometry and
  hit latency.  One call ``(node, stream, t_local, deadline) ->
  (consumed, t_local)`` probes, LRU-touches and advances local time
  entirely in C and stops (without consuming) at the first reference
  that is not a plain cache hit.  Statistics are applied in bulk at the
  end of the call: per-reference totals equal the interpreter's
  exactly, and no Python code runs between the drained references, so
  coordination flags, failures and protocol state observe the same
  interleavings the pure loop produces.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.kernel import BackendUnavailable, KernelBackend
from repro.kernel.blocks import BlockRefAt, scalar_block_generator, wrap_stream
from repro.memory.states import LineState

if TYPE_CHECKING:  # pragma: no cover
    from repro.machine import Machine

try:  # the artefact only exists after `python -m repro.kernel.build_ext`
    from repro.kernel import _hotloops
except ImportError:  # pragma: no cover - exercised on unbuilt checkouts
    _hotloops = None


class CompiledBackend(KernelBackend):
    """C hit-drain loop + (numpy or scalar) block generation."""

    name = "compiled"

    @classmethod
    def availability_error(cls) -> BackendUnavailable | None:
        if _hotloops is None:
            return BackendUnavailable(
                "compiled",
                "the _hotloops extension is not built",
                "build it with: python -m repro.kernel.build_ext",
            )
        if not hasattr(_hotloops, "BatchDrain"):
            return BackendUnavailable(
                "compiled",
                "the built _hotloops extension predates its source",
                "rebuild it with: python -m repro.kernel.build_ext",
            )
        return None

    def attach(self, machine: "Machine") -> None:
        from repro.kernel.vector import make_block_generator

        gen = make_block_generator(machine.workload)
        if gen is None:
            gen = scalar_block_generator(machine.workload)
        for processor in machine.processors:
            for stream in processor.streams:
                wrap_stream(stream, gen)
        cache = machine.cfg.cache
        machine.kernel_drain = _hotloops.BatchDrain(
            BlockRefAt, LineState.INVALID, LineState.DIRTY,
            machine.protocol._cache_hit_lat,
            cache.n_sets, cache.sector_bytes, cache.line_bytes,
        )
