"""The compiled kernel backend.

Rides on the C extension :mod:`repro.kernel._hotloops` (built by
``python -m repro.kernel.build_ext``).  Two accelerations compose:

- **block generation** — streams are wrapped exactly as the vector
  backend wraps them (numpy generators when numpy is present, scalar
  block materialisation otherwise), because the drain loop needs
  materialised blocks to walk;
- **hit draining** — the processor's single-stream batch loop hands
  runs of consecutive cache hits to ``_hotloops.drain_hits``, which
  probes, LRU-touches and advances local time entirely in C and stops
  (without consuming) at the first reference that is not a plain cache
  hit.  Statistics are applied in bulk afterwards: per-reference totals
  equal the interpreter's exactly, and no Python code runs between the
  drained references, so coordination flags, failures and protocol
  state observe the same interleavings the pure loop produces.
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


class BatchDrain:
    """Per-machine closure the processor batch loop calls to consume a
    run of cache hits; returns ``(consumed, t_local)``."""

    __slots__ = ("_hit_lat", "_invalid", "_dirty")

    def __init__(self, machine: "Machine"):
        self._hit_lat = machine.protocol._cache_hit_lat
        self._invalid = LineState.INVALID
        self._dirty = LineState.DIRTY

    def __call__(self, node, stream, t_local: int, deadline: int):
        block_ref = stream._ref_at
        if type(block_ref) is not BlockRefAt:  # migrated foreign stream guard
            return 0, t_local
        position = stream.position
        thinks, isws, addrs, base = block_ref.block(stream.proc_id, position)
        cache = node.cache
        consumed, t_local, reads, writes = _hotloops.drain_hits(
            thinks, isws, addrs, position - base, t_local, deadline,
            cache._index, cache._sets, cache._n_sets,
            cache._sector_bytes, cache._line_bytes,
            self._invalid, self._dirty, self._hit_lat,
        )
        if consumed:
            stream.position = position + consumed
            stats = node.stats
            stats.refs += consumed
            stats.reads += reads
            stats.writes += writes
            cache.read_hits += reads
            cache.write_hits += writes
        return consumed, t_local


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
        return None

    def attach(self, machine: "Machine") -> None:
        from repro.kernel.vector import make_block_generator

        gen = make_block_generator(machine.workload)
        if gen is None:
            gen = scalar_block_generator(machine.workload)
        for processor in machine.processors:
            for stream in processor.streams:
                wrap_stream(stream, gen)
        machine.kernel_drain = BatchDrain(machine)
