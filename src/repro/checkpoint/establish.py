"""Recovery-point establishment: the create/commit algorithm of Fig. 2.

The *create* phase runs on every node in parallel (the machine
coordinator brackets it with barriers).  It is incremental: only items
modified since the last recovery point — exactly those with an
``Exclusive`` or ``Master-Shared`` local copy — are replicated.  For a
replicated ``Master-Shared`` item, an existing ``Shared`` replica is
promoted to ``Pre-Commit2`` with a control message instead of a data
transfer (the Section 3.3 optimisation, ablatable via
``ft.reuse_shared_replicas``).

Identification of the next modified item is assumed to overlap with the
previous injection (the paper's tree of modified lines, Section 4.1),
so no scan time is charged between replications — the AM's group
indexes provide the same capability in software.

The *commit* phase is local: ``Pre-Commit`` copies become
``Shared-CK``, old ``Inv-CK`` copies are discarded.  Its cost is the
state-memory scan of the allocated pages (1 cycle per page test plus 1
cycle per item test, Section 4.2.2) unless the recovery-point-counter
optimisation is enabled (``ft.commit_counters``), which "would nullify
T_commit" (Section 4.2.3).
"""

from __future__ import annotations

from typing import Callable, Generator, TYPE_CHECKING

from repro.coherence.injection import InjectionCause, InjectionFailed
from repro.memory.states import ItemState

if TYPE_CHECKING:  # pragma: no cover
    from repro.coherence.ecp import ExtendedProtocol
    from repro.sim.engine import Engine

_MASTER_SHARED = ItemState.MASTER_SHARED
_PRE_COMMIT2 = ItemState.PRE_COMMIT2
_CREATE_REPLICATION = InjectionCause.CREATE_REPLICATION


class EstablishmentFailed(RuntimeError):
    """The create phase could not place a Pre-Commit copy (e.g. fewer
    than four live memories can hold the four copies a modified item
    needs during establishment).  The previous recovery point is still
    intact; the coordinator aborts and reverts the Pre-Commit copies."""


def flush_dirty_lines(
    node, engine: "Engine", writeback_lat: int
) -> Generator[int, None, None]:
    """Flush ``node``'s modified cache lines into its AM, charging
    ``writeback_lat`` per line to its memory controller.

    Every create phase starts with this.  The data stays cached (CLEAN)
    and readable — the reason read miss rates barely move (Section
    4.2.3)."""
    flushed = node.cache.flush_all_dirty()
    if flushed:
        done = node.mem_ctrl.occupy(engine.now, writeback_lat * len(flushed))
        yield done - engine.now


def node_create_phase(
    protocol: "ExtendedProtocol",
    engine: "Engine",
    node_id: int,
    should_abort: Callable[[], bool] | None = None,
) -> Generator[int, None, None]:
    """Create-phase work of one node, as a simulation generator.

    Yields delays so that the create phases of all nodes interleave and
    contend for the network.  ``should_abort`` is polled between items;
    when it returns True (a failure was detected mid-establishment) the
    phase stops — the previous recovery point is still intact and the
    recovery scan will discard the partial ``Pre-Commit`` copies.
    """
    nodes = protocol.nodes
    node = nodes[node_id]
    cfg = protocol.cfg
    yield from flush_dirty_lines(node, engine, cfg.latency.cache_writeback_line)

    # the loop runs once per modified item on every node at every
    # establishment: hoist the attribute chains it would otherwise chase
    item_bytes = cfg.item_bytes
    reuse_replicas = cfg.ft.reuse_shared_replicas
    stats = node.stats
    state_of = node.am.state
    entry_of = protocol.directory.entry
    injector = protocol.injector
    for item in sorted(node.am.owned_items()):
        if should_abort is not None and should_abort():
            return
        now = engine.now
        entry = entry_of(node_id, item)
        replica = None
        if reuse_replicas and state_of(item) is _MASTER_SHARED:
            replica = min((s for s in entry.sharers if nodes[s].alive), default=None)
        protocol.mark_precommit_local(node_id, item)
        if replica is not None:
            done = protocol.mark_precommit_replica(node_id, item, replica, now)
            stats.ckpt_items_reused += 1
        else:
            try:
                result = injector.inject(
                    node_id, item, _PRE_COMMIT2, now, _CREATE_REPLICATION,
                    drop_local=False,
                )
            except InjectionFailed as exc:
                raise EstablishmentFailed(str(exc)) from exc
            entry.partner = result.acceptor
            # pipelined: the next item is identified and injected while
            # this one's ack is still in flight (Section 4.1)
            done = result.data_sent
            stats.ckpt_items_replicated += 1
        stats.ckpt_bytes_replicated += item_bytes
        if done > now:
            yield done - now


def commit_cost_cycles(protocol: "ExtendedProtocol", node_id: int) -> int:
    """Commit-phase scan time for one node (Section 4.2.2 cost model)."""
    if protocol.cfg.ft.commit_counters:
        # bump the node recovery-point counter; no scan
        return protocol.cfg.latency.commit_page_test
    return scan_cost_cycles(protocol, node_id)


def scan_cost_cycles(protocol: "ExtendedProtocol", node_id: int) -> int:
    """Recovery-scan time (same state-memory walk as the commit scan)."""
    cfg = protocol.cfg
    lat = cfg.latency
    pages = protocol.nodes[node_id].am.pages_resident
    return lat.commit_page_test * pages + lat.commit_item_test * pages * cfg.items_per_page
