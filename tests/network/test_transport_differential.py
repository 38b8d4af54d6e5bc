"""Differential property test: the flat retry loop against the layered one.

The reference is the transport's earlier shape, kept here verbatim: a
``FaultyFabric`` wrapper whose ``attempt`` charges the fabric and draws
a fate, a separate ``_send_ack`` per ack, a receiver-side
``delivered_seq`` dict for duplicate suppression, an ``OutstandingEntry``
per message and the fault draw that reads every rate from the config.
On random fault rates, escalation thresholds, scripted fates and
message sequences (local sends and abandonment included), both must
return the same arrivals or raise the same ``NodeUnavailable``, and
leave the same counters, rng state, outages, timeout streaks,
diagnostic dump and fabric load after every call.
"""

import random

from hypothesis import example, given, settings, strategies as st

from repro.coherence.standard import NodeUnavailable
from repro.config import LatencyConfig, TransportConfig
from repro.network.fabric import MeshFabric
from repro.network.message import MessageKind
from repro.network.topology import Mesh, Subnet
from repro.network.transport import (
    DeliveryFate,
    LinkFaultModel,
    OutstandingEntry,
    ReliableTransport,
)

D = DeliveryFate.DROPPED
U = DeliveryFate.DUPLICATED
OK = DeliveryFate.DELIVERED


class ReferenceFaultModel(LinkFaultModel):
    """The fault draw that reads its rates and rng through the config."""

    def draw(self, src: int, dst: int, at: int) -> tuple[DeliveryFate, int]:
        if self._forced:
            fate = self._forced.popleft()
            if fate is DeliveryFate.DROPPED:
                self.drops_injected += 1
            elif fate is DeliveryFate.DUPLICATED:
                self.dups_injected += 1
            return fate, 0
        cfg = self.cfg
        path = (src, dst)
        until = self.outage_until.get(path)
        if until is not None:
            if at < until:
                self.drops_injected += 1
                return DeliveryFate.DROPPED, 0
            del self.outage_until[path]
        if cfg.outage_rate and self.rng.random() < cfg.outage_rate:
            self.outage_until[path] = at + cfg.outage_cycles
            self.outages_started += 1
            self.drops_injected += 1
            return DeliveryFate.DROPPED, 0
        if cfg.loss_rate and self.rng.random() < cfg.loss_rate:
            self.drops_injected += 1
            return DeliveryFate.DROPPED, 0
        delay = 0
        if cfg.reorder_rate and self.rng.random() < cfg.reorder_rate:
            delay = self.rng.randrange(1, cfg.reorder_max_delay + 1)
            self.reorders_injected += 1
        if cfg.dup_rate and self.rng.random() < cfg.dup_rate:
            self.dups_injected += 1
            return DeliveryFate.DUPLICATED, delay
        return DeliveryFate.DELIVERED, delay


class FaultyFabric:
    """A ``MeshFabric`` whose transfers are subject to link faults."""

    def __init__(self, fabric: MeshFabric, faults: LinkFaultModel):
        self.raw = fabric
        self.faults = faults

    def attempt(
        self,
        src: int,
        dst: int,
        flits: int,
        subnet: Subnet,
        depart: int,
        kind: MessageKind | None = None,
        item: int | None = None,
        data_bytes: int = 0,
    ) -> tuple[DeliveryFate, int | None]:
        arrival = self.raw.transfer(src, dst, flits, subnet, depart, kind, item, data_bytes)
        fate, delay = self.faults.draw(src, dst, depart)
        if fate is DeliveryFate.DROPPED:
            return fate, None
        if fate is DeliveryFate.DUPLICATED:
            # the duplicate consumes bandwidth too
            self.raw.transfer(src, dst, flits, subnet, depart, kind, item)
        return fate, arrival + delay


class ReferenceTransport(ReliableTransport):
    """One ``OutstandingEntry``, one ``attempt`` per copy, one
    ``_send_ack`` per ack and a ``delivered_seq`` check per arrival."""

    def __init__(self, fabric, cfg, rng):
        super().__init__(fabric, cfg, rng)
        self.faults = ReferenceFaultModel(self.cfg, rng)
        self._forced = self.faults._forced
        self.faulty = FaultyFabric(fabric, self.faults)
        self.delivered_seq: dict[tuple[int, int], int] = {}

    def _reliable_transfer(self, src, dst, flits, subnet, depart, kind, item, data_bytes):
        cfg = self.cfg
        stats = self.stats
        pair = (src, dst)
        seq = self.next_seq.get(pair, 0)
        self.next_seq[pair] = seq + 1
        entry = OutstandingEntry(src=src, dst=dst, seq=seq, kind=kind, item=item)
        self.outstanding[pair] = entry
        ack_subnet = Subnet.REPLY if subnet is Subnet.REQUEST else Subnet.REQUEST

        send_time = depart
        timeout = cfg.timeout_cycles
        first_arrival: int | None = None

        while True:
            entry.attempts += 1
            entry.backoff_deadline = send_time + timeout
            if entry.attempts > cfg.abandon_attempts:
                entry.abandoned = True
                self._suspect(dst)
                raise NodeUnavailable(dst, item if item is not None else -1)
            if entry.attempts > 1:
                stats.transport_retries += 1
                stats.transport_retransmitted_flits += flits
            fate, arrival = self.faulty.attempt(
                src, dst, flits, subnet, send_time,
                kind=kind, item=item,
                data_bytes=data_bytes if entry.attempts == 1 else 0,
            )
            if arrival is not None:
                if self.delivered_seq.get(pair, -1) >= seq:
                    stats.transport_duplicates_suppressed += 1
                else:
                    self.delivered_seq[pair] = seq
                    first_arrival = arrival
                if fate is DeliveryFate.DUPLICATED:
                    stats.transport_duplicates_suppressed += 1
                if self._send_ack(dst, src, ack_subnet, arrival, item):
                    self.consecutive_timeouts[dst] = 0
                    del self.outstanding[pair]
                    assert first_arrival is not None
                    return first_arrival
            stats.transport_timeouts += 1
            self._note_timeout(dst)
            send_time = send_time + timeout
            timeout = self._next_timeout(timeout)

    def _send_ack(self, src, dst, subnet, depart, item):
        self.stats.transport_acks += 1
        fate, arrival = self.faulty.attempt(
            src, dst, self._control_flits, subnet, depart,
            kind=MessageKind.TRANSPORT_ACK, item=item,
        )
        if fate is DeliveryFate.DUPLICATED:
            self.stats.transport_duplicates_suppressed += 1
        return arrival is not None


def build(kind, cfg, seed, forced):
    fabric = MeshFabric(Mesh(3, 2), LatencyConfig())
    transport = kind(fabric, cfg, random.Random(seed))
    transport.faults.force(*forced)
    calls = []
    transport.on_suspect = lambda dst: calls.append(("suspect", dst))
    transport.on_retry_storm = lambda: calls.append(("storm",))
    return transport, calls


def send(transport, step, depart):
    """One logical message through the entry point the step names."""
    src, dst, op, subnet, _, item = step
    try:
        if op == "control":
            return transport.control(src, dst, subnet, depart,
                                     MessageKind.READ_REQ, item)
        if op == "data":
            return transport.data(src, dst, 128, depart,
                                  MessageKind.DATA_REPLY, item)
        return transport.transfer(src, dst, 36, subnet, depart, None, item, 128)
    except NodeUnavailable as exc:
        return ("unavailable", exc.node_id, exc.item)


def observe(transport, calls):
    faults = transport.faults
    fabric = transport.raw
    return {
        "stats": transport.stats,
        "faults": (faults.drops_injected, faults.dups_injected,
                   faults.reorders_injected, faults.outages_started,
                   list(faults._forced)),
        "rng": faults.rng.getstate(),
        "outage_until": faults.outage_until,
        "consecutive_timeouts": transport.consecutive_timeouts,
        "next_seq": transport.next_seq,
        "dump": transport.dump().lines(),
        "fabric": (fabric.flits_carried, fabric.messages_sent,
                   fabric.data_bytes_carried),
        "escalations": calls,
    }


rates = st.floats(0.0, 0.5, exclude_max=True)
configs = st.builds(
    lambda loss, dup, reorder, outage, threshold, extra, delay, cycles, jitter:
        TransportConfig(
            loss_rate=loss, dup_rate=dup, reorder_rate=reorder,
            outage_rate=outage, suspicion_threshold=threshold,
            abandon_attempts=threshold + extra, reorder_max_delay=delay,
            outage_cycles=cycles, jitter_fraction=jitter,
        ),
    rates, rates, rates, rates,
    st.integers(1, 3), st.integers(0, 3), st.integers(1, 64),
    st.integers(0, 3_000), st.sampled_from([0.0, 0.25, 1.0]),
)
#: One message ``(src, dst, op, subnet, gap, item)`` departing ``gap``
#: cycles after the previous one (a negative gap departs earlier).
steps = st.lists(st.tuples(
    st.integers(0, 5), st.integers(0, 5),
    st.sampled_from(["control", "data", "transfer"]),
    st.sampled_from(list(Subnet)), st.integers(-500, 3_000),
    st.none() | st.integers(0, 63),
), max_size=25)
fates = st.lists(st.sampled_from(list(DeliveryFate)), max_size=12)


@settings(max_examples=200, deadline=None)
@given(configs, st.integers(0, 2**32 - 1), fates, steps)
@example(  # scripted only: retry, lost ack, duplicate, abandonment
    TransportConfig(suspicion_threshold=2, abandon_attempts=3), 0,
    [D, OK, D, OK, OK, U, U, D, D, D, OK, OK],
    [
        (0, 1, "control", Subnet.REQUEST, 0, 7),
        (1, 0, "data", Subnet.REPLY, 10, 7),
        (3, 3, "transfer", Subnet.REQUEST, 5, None),   # local: no fate drawn
        (2, 5, "transfer", Subnet.REPLY, 0, None),
        (2, 5, "control", Subnet.REQUEST, 100, 3),     # abandoned
        (2, 5, "control", Subnet.REQUEST, 100, 3),     # retires the entry
    ],
)
@example(  # every fault live, with outages long enough to abandon
    TransportConfig(loss_rate=0.3, dup_rate=0.3, reorder_rate=0.3,
                    outage_rate=0.3, suspicion_threshold=1,
                    abandon_attempts=2, reorder_max_delay=8),
    7, [],
    [(0, 5, "data", Subnet.REPLY, 50, i) for i in range(12)]
    + [(4, 4, "control", Subnet.REQUEST, 0, 1)],
)
def test_flat_retry_loop_matches_layered_reference(cfg, seed, forced, sequence):
    flat, flat_calls = build(ReliableTransport, cfg, seed, forced)
    ref, ref_calls = build(ReferenceTransport, cfg, seed, forced)
    depart = 0
    for step in sequence:
        depart = max(0, depart + step[4])
        assert send(flat, step, depart) == send(ref, step, depart)
        assert observe(flat, flat_calls) == observe(ref, ref_calls)
