"""Outside-in layer spans for the traced repeat.

The tracer wraps the public entry point of each layer *on the built
instances* (and, for campaign cells, on the campaign module's
``execute_campaign_payload`` and ``Machine`` globals), so the program
itself carries no tracing code.  A span covers one call, or one
resumption of a generator, into an entry point.  Spans nest on one
stack, so a layer's self time is its spans' duration minus the time
covered by the spans it caused; self times therefore add up to the
traced wall time.

The C hit drain only engages on streams whose ``_ref_at`` is a
``BlockRefAt``, so block generation is traced by wrapping the block's
inner ``_gen`` callable, never by replacing ``stream._ref_at``.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager

#: Layers whose spans the tracer records, in outside-in order.
LAYERS = (
    "orch.runner", "fault.cell", "orch.store", "machine.build",
    "sim.engine", "node.processor", "kernel.drain", "workloads.blockgen",
    "coherence.access", "coherence.injection", "network.transfer",
    "recovery.create", "recovery.commit", "recovery.abort",
    "recovery.scan", "recovery.reconfigure",
)


class Tracer:
    """Span stack plus per-layer call counts and self times."""

    def __init__(self) -> None:
        #: Open spans: ``[start, time covered by finished children]``.
        self._stack: list[list[float]] = []
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        #: Layer counts that are not span counts (drained refs, ...).
        self.counts: Counter = Counter()
        #: Machines built inside traced campaign cells.
        self.machines: list = []
        #: Summed duration of the outermost spans.
        self.wall_s = 0.0

    # -- span primitives -------------------------------------------------

    def _open(self) -> None:
        self._stack.append([time.perf_counter(), 0.0])

    def _close(self, layer: str) -> None:
        start, covered = self._stack.pop()
        duration = time.perf_counter() - start
        self.self_s[layer] += duration - covered
        self.calls[layer] += 1
        if self._stack:
            self._stack[-1][1] += duration
        else:
            self.wall_s += duration

    def wrap(self, layer: str, fn):
        """``fn`` with each call recorded as one ``layer`` span."""
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            open_()
            try:
                return fn(*args, **kwargs)
            finally:
                close(layer)

        return traced

    def wrap_generator(self, layer: str, genfn):
        """``genfn`` with each resumption of its generator recorded as
        one ``layer`` span (the simulator's processes are only ever
        driven by ``send``)."""
        open_, close = self._open, self._close

        def drive(gen):
            value = None
            while True:
                open_()
                try:
                    item = gen.send(value)
                except StopIteration as stop:
                    return stop.value
                finally:
                    close(layer)
                value = yield item

        def traced(*args, **kwargs):
            return drive(genfn(*args, **kwargs))

        return traced

    # -- instrumentation -------------------------------------------------

    def instrument_machine(self, machine) -> None:
        """Wrap every layer entry point of a built, not yet run machine."""
        from repro.kernel.blocks import BlockRefAt

        calls, counts = self.calls, self.counts
        for stream in machine.all_streams():
            if isinstance(stream._ref_at, BlockRefAt):
                block = stream._ref_at
                block._gen = self.wrap("workloads.blockgen", block._gen)
        if machine.kernel_drain is not None:
            drain = self.wrap("kernel.drain", machine.kernel_drain)

            def counted_drain(node, stream, t_local, deadline):
                hits, t_local = drain(node, stream, t_local, deadline)
                counts["kernel.drain.refs"] += hits
                return hits, t_local

            machine.kernel_drain = counted_drain
        for processor in machine.processors:
            processor.run = self.wrap_generator("node.processor", processor.run)

        protocol = machine.protocol

        def access(fn):
            traced = self.wrap("coherence.access", fn)

            def counted(*args):
                before = calls["network.transfer"]
                try:
                    return traced(*args)
                finally:
                    if calls["network.transfer"] != before:
                        counts["coherence.access.remote_calls"] += 1

            return counted

        protocol.read = access(protocol.read)
        protocol.write = access(protocol.write)
        injector = protocol.injector
        injector.inject = self.wrap("coherence.injection", injector.inject)
        transport = machine.transport
        transport.transfer = self.wrap("network.transfer", transport.transfer)

        recovery = machine.recovery
        recovery.node_create_phase = self.wrap_generator(
            "recovery.create", recovery.node_create_phase
        )
        recovery.commit_node = self.wrap("recovery.commit", recovery.commit_node)
        recovery.abort_node = self.wrap("recovery.abort", recovery.abort_node)
        recovery.scan_node = self.wrap("recovery.scan", recovery.scan_node)
        recovery.reconfigure = self.wrap_generator(
            "recovery.reconfigure", recovery.reconfigure
        )
        machine.run = self.wrap("sim.engine", machine.run)

    def instrument_runner(self, runner) -> None:
        """Wrap a campaign runner's run and its result store's writes."""
        runner.run = self.wrap("orch.runner", runner.run)
        store = runner.store
        store.save_payload = self.wrap("orch.store", store.save_payload)

    @contextmanager
    def patch_campaign(self):
        """Trace campaign cells, their machines and journal writes.

        Cells and their machines are created inside the campaign
        module, so its ``execute_campaign_payload`` and ``Machine``
        globals are swapped for traced versions while the block runs;
        the journal is created per run, so its ``append`` is wrapped on
        the class.  Everything is restored on exit.
        """
        from repro.fault import campaign
        from repro.orch.journal import Journal

        original_execute = campaign.execute_campaign_payload
        original_machine = campaign.Machine
        original_append = Journal.append
        build = self.wrap("machine.build", original_machine)

        def traced_machine(*args, **kwargs):
            machine = build(*args, **kwargs)
            self.instrument_machine(machine)
            self.machines.append(machine)
            return machine

        campaign.execute_campaign_payload = self.wrap(
            "fault.cell", original_execute
        )
        campaign.Machine = traced_machine
        Journal.append = self.wrap("orch.store", original_append)
        try:
            yield
        finally:
            campaign.execute_campaign_payload = original_execute
            campaign.Machine = original_machine
            Journal.append = original_append

    # -- results ---------------------------------------------------------

    def report(self) -> dict:
        """Per-layer calls and self seconds, plus the traced wall time
        (the summed duration of the outermost spans)."""
        if self._stack:
            raise RuntimeError(f"{len(self._stack)} span(s) still open")
        return {
            "calls": {layer: self.calls[layer] for layer in LAYERS},
            "self_s": {layer: self.self_s[layer] for layer in LAYERS},
            "counts": dict(self.counts),
            "wall_s": self.wall_s,
        }
