"""Differential property test: the flat injection engine against the
layered one.

The reference is the engine's earlier shape, kept here verbatim: the
probe, accept, data and ack messages go through the fabric's
``control``/``data`` wrappers, every latency is read through
``cfg.latency``, enum members through their classes, the statistics
through a ``record_injection`` call, the result is a frozen
dataclass, and the install and post-injection bookkeeping are the
earlier ``_install``/``after_injection``/``_move_pointer``.  Two copies
of a random ECP machine run side by side, one on each engine.  Fault
free, at 1 % loss, with a failure and with scripted DROPPED/DUPLICATED
fates in front of chosen injections, every injection must return the
same result (or raise the same error) and leave the same AM states,
directory, link and memory-controller state, node and machine
statistics and rng states.
"""

import copy
from dataclasses import dataclass

from hypothesis import given, settings, strategies as st

from repro.coherence.injection import (
    InjectionCause,
    InjectionEngine,
    InjectionFailed,
)
from repro.fault.failures import FailurePlan
from repro.machine import Machine
from repro.memory.attraction_memory import InjectionSlot
from repro.memory.states import ItemState
from repro.network.message import MessageKind
from repro.network.topology import Subnet
from repro.network.transport import DeliveryFate
from repro.workloads.synthetic import UniformShared
from tests.helpers import small_config


@dataclass(frozen=True)
class LayeredResult:
    """Outcome of one injection."""

    acceptor: int
    complete: int
    data_sent: int
    probe_hops: int


class LayeredInjectionEngine(InjectionEngine):
    """The injection engine before it was flattened into one frame."""

    def inject(
        self,
        src,
        item,
        install_state,
        now,
        cause,
        drop_local=True,
        exclude=frozenset(),
    ):
        p = self.protocol
        lat = p.cfg.latency
        item_bytes = p.cfg.item_bytes
        acceptor = None
        probe_hops = 0
        t = now
        cursor = src
        for candidate in p.ring.walk_from(src):
            # the probe is forwarded node-to-node along the ring
            t = p.fabric.control(
                cursor, candidate, Subnet.REQUEST, t, MessageKind.INJECT_PROBE, item
            )
            probe_hops += 1
            cursor = candidate
            node = p.nodes[candidate]
            if not node.alive:
                continue
            t = node.mem_ctrl.occupy(t, lat.pointer_lookup)
            if candidate in exclude:
                continue
            slot = node.am.injection_probe(item)
            if slot is not InjectionSlot.NONE:
                acceptor = candidate
                break
        if acceptor is None:
            raise InjectionFailed(
                f"item {item} from node {src}: no AM can accept the injection"
            )

        # victim node replies, then the data is sent from the source
        t = p.fabric.control(
            acceptor, src, Subnet.REPLY, t, MessageKind.INJECT_ACCEPT, item
        )
        t = p.nodes[src].mem_ctrl.occupy(t, lat.remote_am_service)
        t = p.fabric.data(
            src, acceptor, item_bytes, t, MessageKind.INJECT_DATA, item
        )
        data_sent = t
        self._install(acceptor, item, install_state, t)
        t_ack = p.fabric.control(
            acceptor, src, Subnet.REPLY, t + lat.inject_ack, MessageKind.INJECT_ACK, item
        )
        p.nodes[acceptor].mem_ctrl.occupy(t, lat.remote_am_service)

        if drop_local:
            p.nodes[src].am.set_state(item, ItemState.INVALID)
        record_injection(p.nodes[src].stats, cause, item_bytes, probe_hops)
        layered_after_injection(p, item, src, acceptor, install_state, t_ack)
        return LayeredResult(
            acceptor=acceptor,
            complete=t_ack,
            data_sent=data_sent,
            probe_hops=probe_hops,
        )

    def _install(self, node_id, item, state, now):
        p = self.protocol
        node = p.nodes[node_id]
        page = node.am.page_of(item)
        if not node.am.has_page(page):
            if node.am.free_ways(page) == 0:
                victim = node.am.evictable_page(page)
                if victim is None:
                    raise InjectionFailed(
                        f"node {node_id} accepted item {item} but has no room"
                    )
                p.drop_page(node_id, victim, now)
            node.am.allocate_page(page)
            p.registry.on_page_allocated(page, node_id)
        else:
            old = node.am.state(item)
            if old is state:
                return
            if not old.is_replaceable:
                raise InjectionFailed(
                    f"node {node_id} holds item {item} in {old.name}; "
                    "probe should have refused"
                )
            if old is ItemState.SHARED:
                p.on_shared_copy_dropped(node_id, item, now)
        node.am.set_state(item, state)


def record_injection(stats, cause, bytes_moved, probe_hops):
    stats.injections[cause] += 1
    stats.bytes_injected += bytes_moved
    stats.injection_probe_hops += probe_hops


def layered_after_injection(p, item, src, acceptor, state, now):
    if state in (ItemState.EXCLUSIVE, ItemState.MASTER_SHARED, ItemState.SHARED_CK1):
        if p.directory.serving_node(item) == src:
            p.directory.move_entry(item, src, acceptor)
            layered_move_pointer(p, item, src, acceptor, now)
    elif state in (ItemState.SHARED_CK2, ItemState.PRE_COMMIT2):
        serving = p.directory.serving_node(item)
        if serving is not None:
            entry = p.directory.peek_entry(serving, item)
            if entry is not None and entry.partner == src:
                entry.partner = acceptor
                p.fabric.control(
                    src, serving, Subnet.REQUEST, now, MessageKind.POINTER_UPDATE, item
                )


def layered_move_pointer(p, item, old_serving, new_serving, now):
    home = p.pointer_host(p.directory.home_of(item))
    if home != old_serving:
        p.fabric.control(
            old_serving, home, Subnet.REQUEST, now, MessageKind.POINTER_UPDATE, item
        )
    p.directory.set_serving_node(item, new_serving)


def observe(machine):
    """Everything an injection may touch, copied."""
    p = machine.protocol
    fabric = machine.fabric
    directory = p.directory
    return {
        "am": [
            {page: frame.states[:] for page, frame in node.am._frames.items()}
            for node in p.nodes
        ],
        "pointers": [dict(partition) for partition in directory._pointers],
        "entries": [
            {item: (sorted(e.sharers), e.partner) for item, e in partition.items()}
            for partition in directory._entries
        ],
        "links": [
            (cp._free[:], cp.busy_cycles, cp.uses, cp.waited_cycles)
            for subnet in Subnet
            for cp in fabric._links[subnet].values()
        ],
        "lanes": (fabric._request.max_free, fabric._reply.max_free,
                  fabric.messages_sent, fabric.flits_carried,
                  fabric.data_bytes_carried),
        "mem_ctrl": [
            (sorted(node.mem_ctrl._free), node.mem_ctrl.busy_cycles,
             node.mem_ctrl.uses, node.mem_ctrl.waited_cycles)
            for node in p.nodes
        ],
        "node_stats": copy.deepcopy([node.stats for node in p.nodes]),
        "machine_stats": copy.deepcopy(machine.stats),
        "registry": copy.deepcopy(vars(p.registry)),
        "rng": (p.rng.getstate(), machine.transport.faults.rng.getstate()),
        "transport": (dict(machine.transport.next_seq),
                      dict(machine.transport.consecutive_timeouts),
                      list(machine.transport.faults._forced)),
    }


def run(engine_cls, scenario):
    """Run one machine on ``engine_cls``; returns its injection log."""
    n_nodes, loss, region, window, refs, period, failure, seed, scripted = scenario
    cfg = small_config(n_nodes).with_ft(checkpoint_period_override=period)
    if loss:
        cfg = cfg.with_transport(loss_rate=loss)
    wl = UniformShared(n_nodes, refs_per_proc=refs, region_bytes=region,
                       window_items=window, write_fraction=0.5, seed=seed)
    plan = [FailurePlan(time=failure[0], node=failure[1] % n_nodes,
                        repair_delay=500)] if failure else None
    machine = Machine(cfg, wl, protocol="ecp", failure_plan=plan)
    engine = engine_cls(machine.protocol)
    machine.protocol.injector = engine
    inject = engine.inject
    log = []

    def recorded(*args, **kwargs):
        index = len(log)
        fates = scripted.get(index)
        if fates:
            machine.transport.faults.force(*fates)
        # a full observation costs milliseconds: take one after the
        # first calls, every 16th call, each scripted call and a failure
        full = index < 32 or index % 16 == 0 or fates
        try:
            result = inject(*args, **kwargs)
        except Exception as exc:
            log.append((args, kwargs, repr(exc), observe(machine)))
            raise
        outcome = (result.acceptor, result.complete, result.data_sent,
                   result.probe_hops)
        log.append((args, kwargs, outcome, observe(machine) if full else None))
        return result

    engine.inject = recorded
    try:
        machine.run()
        end = "completed"
    except Exception as exc:  # both sides must fail the same way
        end = repr(exc)
    return log, end, observe(machine)


fate_lists = st.lists(
    st.sampled_from([DeliveryFate.DROPPED, DeliveryFate.DUPLICATED,
                     DeliveryFate.DELIVERED]),
    min_size=1, max_size=3,
)
#: ``(nodes, loss rate, shared region bytes, locality window, refs per
#: proc, checkpoint period, optional (failure time, node), workload
#: seed, {injection index: fates forced in front of it})``.  A 640 KB
#: region on six nodes fills the AMs: replacement injections, and
#: sometimes an injection no AM can accept.
scenarios = st.tuples(
    st.sampled_from([6, 8]),
    st.sampled_from([0.0, 0.0, 0.01]),
    st.sampled_from([64 * 1024, 256 * 1024, 640 * 1024]),
    st.sampled_from([4, 64, 512]),
    st.integers(60, 240),
    st.sampled_from([1_500, 3_000]),
    st.none() | st.tuples(st.integers(2_000, 10_000), st.integers(0, 5)),
    st.integers(0, 2**16),
    st.dictionaries(st.integers(0, 40), fate_lists, max_size=4),
)


@settings(max_examples=20, deadline=None)
@given(scenarios)
def test_flat_inject_matches_layered_reference(scenario):
    flat_log, flat_end, flat_state = run(InjectionEngine, scenario)
    ref_log, ref_end, ref_state = run(LayeredInjectionEngine, scenario)
    assert len(flat_log) == len(ref_log)
    for got, want in zip(flat_log, ref_log):
        assert got[:3] == want[:3]
        assert got[3] == want[3], got[:3]
    assert flat_end == ref_end
    assert flat_state == ref_state


def test_fixed_scenarios_reach_every_injection_cause():
    """Two fixed machines, one with scripted fates and one lossy with a
    failure, drive every injection cause through both engines."""
    causes = set()
    for scenario in (
        (6, 0.0, 640 * 1024, 512, 300, 1_500, None, 7,
         {3: [DeliveryFate.DROPPED], 5: [DeliveryFate.DUPLICATED] * 2}),
        (6, 0.01, 512 * 1024, 64, 300, 1_500, (6_000, 2), 7, {}),
    ):
        flat = run(InjectionEngine, scenario)
        assert flat == run(LayeredInjectionEngine, scenario)
        assert flat[1] == "completed"
        causes |= {entry[0][4] for entry in flat[0]}
    assert causes == set(InjectionCause), set(InjectionCause) - causes
