"""The compiled kernel backend.

Rides on the C extension :mod:`repro.kernel._hotloops` (built by
``python -m repro.kernel.build_ext``).  Two accelerations compose:

- **block generation** — each stream's ``_ref_at`` becomes a
  :class:`~repro.kernel.blocks.BlockRefAt` over a ``_hotloops.BlockGen``
  built once per machine from the workload's hoisted constants and
  tables (calibrated SPLASH, Zipf KV and scan analytics); the synthetic
  and trace families materialise blocks through their scalar
  ``ref_at`` instead, because the drain loop needs blocks to walk;
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

from typing import TYPE_CHECKING, Callable

from repro.kernel import BackendUnavailable, KernelBackend
from repro.kernel.blocks import (
    BlockGenerator,
    BlockRefAt,
    scalar_block_generator,
    wrap_stream,
)
from repro.memory.states import LineState
from repro.workloads.base import _MASK64, Workload, mix64

if TYPE_CHECKING:  # pragma: no cover
    from repro.machine import Machine

try:  # the artefact only exists after `python -m repro.kernel.build_ext`
    from repro.kernel import _hotloops
except ImportError:  # pragma: no cover - exercised on unbuilt checkouts
    _hotloops = None


def _think_consts(mean_think: float) -> dict:
    """``Workload._think``'s dither as a whole part and a 16-bit
    threshold: ``m / 65536.0 < frac`` is exactly ``m < frac * 65536.0``
    (scaling by a power of two only shifts the exponent)."""
    whole = int(mean_think)
    return {"think_whole": whole, "think_thresh": (mean_think - whole) * 65536.0}


def generator_args(workload: Workload) -> tuple[Callable, dict] | None:
    """The ``_hotloops`` factory for ``workload``'s block generator and
    its keyword arguments, or ``None`` for the families without one
    (synthetic and trace workloads)."""
    from repro.workloads.datacenter import ScanAnalytics, ZipfKV
    from repro.workloads.splash import Water, _CalibratedWorkload

    wl = workload
    seed_mix = wl.seed * 0x1F1F1F1F & _MASK64
    if isinstance(wl, _CalibratedWorkload):
        if not wl._priv_ready:
            wl._init_priv_consts()
        water = {}
        shared_addr = wl._shared_addr
        if isinstance(wl, Water):
            # Water's shared path is plain hash arithmetic and runs in C
            forces_items = wl._forces_bytes // wl.item_bytes
            shared_addr = None
            water = dict(
                seed_mix=seed_mix, rpp=max(1, wl._rpp),
                iterations=wl._ITERATIONS, forces=wl._forces,
                forces_items=forces_items,
                slice_items=max(1, forces_items // wl.n_procs),
            )
        return _hotloops.splash_gen, dict(
            private=wl._private, item_bytes=wl.item_bytes,
            h_ref=wl._h_ref_base, h_think=wl._h_think_base,
            think_whole=wl._think_whole, think_thresh=wl._think_thresh,
            w_thresh=wl._w_thresh, sw_thresh=wl._sw_thresh,
            sr_thresh=wl._sr_thresh, priv_n_items=wl._priv_n_items,
            pw_window=wl._pw_window, pr_window=wl._pr_window,
            pw_blklen=wl._pw_blklen, h_pw=wl._h_pw, h_pr=wl._h_pr,
            h_pwb=wl._h_pwb, h_prb=wl._h_prb, shared_addr=shared_addr,
            **water,
        )
    if isinstance(wl, ZipfKV):
        return _hotloops.zipf_gen, dict(
            sessions=wl._sessions, item_bytes=wl.item_bytes,
            h_ref=mix64(seed_mix + 0x2B1), h_think=mix64(seed_mix + 0xD17E),
            w_thresh=wl._wf_thresh, sf_thresh=wl._sf_thresh,
            clients_per_proc=wl.clients_per_proc,
            session_items_per_client=wl.session_items_per_client,
            store=wl._store, cdf=wl._cdf, perm=wl._perm,
            **_think_consts(wl._mean_think),
        )
    if isinstance(wl, ScanAnalytics):
        return _hotloops.scan_gen, dict(
            acc=wl._acc, item_bytes=wl.item_bytes,
            h_ref=mix64(seed_mix + 0x5CA7), h_think=mix64(seed_mix + 0xD17E),
            w_thresh=wl._wf_thresh, table=wl._table,
            table_items=wl._table_items, stride_items=wl.stride_items,
            accumulator_items=wl.accumulator_items,
            table_writes=wl.table_writes, **_think_consts(wl._mean_think),
        )
    return None


def make_block_generator(workload: Workload) -> BlockGenerator | None:
    """The C block generator for ``workload``, or ``None`` for the
    families without one."""
    args = generator_args(workload)
    if args is None:
        return None
    factory, kwargs = args
    return factory(**kwargs)


class CompiledBackend(KernelBackend):
    """C block generation + C hit-drain loop."""

    name = "compiled"

    @classmethod
    def availability_error(cls) -> BackendUnavailable | None:
        if _hotloops is None:
            return BackendUnavailable(
                "compiled",
                "the _hotloops extension is not built",
                "build it with: python -m repro.kernel.build_ext",
            )
        if not hasattr(_hotloops, "BlockGen"):
            return BackendUnavailable(
                "compiled",
                "the built _hotloops extension predates its source",
                "rebuild it with: python -m repro.kernel.build_ext",
            )
        return None

    def attach(self, machine: "Machine") -> None:
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
