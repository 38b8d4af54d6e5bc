"""Unreliable-interconnect model and the reliable-delivery transport.

The paper's fault model assumes the interconnection network is
fault-free: every message is delivered exactly once.  Real
fault-tolerant machines *earn* that property with an end-to-end
transport layer; this module supplies one so that the coherence and
checkpoint protocols can be exercised over lossy links:

:class:`LinkFaultModel`
    A seeded per-transfer fault source: packets are dropped, duplicated
    or reordered with configured probabilities, and a (src, dst) path
    can suffer a transient outage during which every packet is lost.
    Every packet occupies the links it traversed whatever its fate (a
    dropped packet is discarded by the end-to-end check at the
    destination NIC, as in any CRC-protected wormhole network; a
    duplicate crosses the network twice).

:class:`ReliableTransport`
    The delivery layer the protocols ride on.  It exposes the part of
    ``MeshFabric`` the protocols use — ``transfer``, ``control``,
    ``data`` and ``latency`` — so it drops in as a protocol's
    ``fabric``.  Per (src, dst) pair it maintains a sequence number;
    every logical message is retransmitted on timeout with exponential
    backoff plus jitter until a positive ack arrives, duplicates are
    suppressed at the receiver by sequence comparison, and the *first*
    successful delivery time is returned — the analytic-transaction
    equivalent of exactly-once effect delivery.  All waiting is charged
    in simulated cycles, so when every fault rate is zero the transport
    delegates straight to the fabric: no random draws, no bookkeeping,
    and bit-identical Table 2 latencies (pay-for-use).

Escalation, not masking: after ``suspicion_threshold`` *consecutive*
timeouts toward one destination the transport reports the node as a
suspected failure through ``on_suspect`` (wired by
:class:`~repro.machine.Machine` into the same idempotent
``detect_failure`` path the heartbeat monitor of
:mod:`repro.fault.detection` uses) and notifies the
``transport_retry_storm`` trigger window.  The ECP recovery and
reconfiguration machinery — not the transport — decides what happens
next; a suspicion of a node that is in fact alive is counted as
``spurious_suspicions`` and discarded by ``detect_failure``.

Transactions stay analytic (DESIGN.md section 3): the retry loop
advances a local time cursor and charges the network for every copy
that crossed it.  A retransmission timeout is a number added to that
cursor, never an engine event, so retries schedule and dispatch
nothing.
"""

from __future__ import annotations

import enum
import random
from collections import deque
from dataclasses import dataclass, field

from repro.config import TransportConfig
from repro.network.fabric import MeshFabric
from repro.network.message import MessageKind
from repro.network.topology import Subnet
from repro.stats.collectors import MachineStats


class DeliveryFate(enum.Enum):
    """What the link-fault model did to one packet."""

    DELIVERED = "delivered"
    DROPPED = "dropped"
    DUPLICATED = "duplicated"


#: The fates with no extra delay, shared so a draw allocates nothing.
_DELIVERED = (DeliveryFate.DELIVERED, 0)
_DROPPED = (DeliveryFate.DROPPED, 0)
# enum members read per packet are module globals: an enum class
# attribute read goes through the enum metaclass
_DROPPED_FATE = DeliveryFate.DROPPED
_DUPLICATED_FATE = DeliveryFate.DUPLICATED
_ACK = MessageKind.TRANSPORT_ACK


class LinkFaultModel:
    """Seeded fault source for individual packet transfers.

    Deterministic per (seed, draw sequence): the same configuration and
    rng seed reproduce the same fates, which is what makes lossy
    campaign cells content-addressable and replayable.
    """

    def __init__(self, cfg: TransportConfig, rng: random.Random | None = None):
        self.cfg = cfg
        self.rng = rng or random.Random(0)
        # hot-path caches (``TransportConfig`` is frozen)
        self._random = self.rng.random
        self._outage_rate = cfg.outage_rate
        self._loss_rate = cfg.loss_rate
        self._reorder_rate = cfg.reorder_rate
        self._dup_rate = cfg.dup_rate
        #: (src, dst) -> simulation time the current outage ends.
        self.outage_until: dict[tuple[int, int], int] = {}
        #: Scripted fates consumed before any random draw (test and
        #: model-checker hook; see :meth:`force`).
        self._forced: deque[DeliveryFate] = deque()
        # fault accounting (what the model injected, not what the
        # transport recovered — the difference is the point)
        self.drops_injected = 0
        self.dups_injected = 0
        self.reorders_injected = 0
        self.outages_started = 0

    @property
    def active(self) -> bool:
        """True when any fault can occur (rates or scripted fates)."""
        return self.cfg.unreliable or bool(self._forced)

    def force(self, *fates: DeliveryFate) -> None:
        """Script the next fates verbatim (consumed before rng draws)."""
        self._forced.extend(fates)

    def draw(self, src: int, dst: int, at: int) -> tuple[DeliveryFate, int]:
        """Decide one packet's fate; returns (fate, extra_delay)."""
        if self._forced:
            fate = self._forced.popleft()
            if fate is DeliveryFate.DROPPED:
                self.drops_injected += 1
            elif fate is DeliveryFate.DUPLICATED:
                self.dups_injected += 1
            return fate, 0
        if self.outage_until:
            path = (src, dst)
            until = self.outage_until.get(path)
            if until is not None:
                if at < until:
                    self.drops_injected += 1
                    return _DROPPED
                del self.outage_until[path]
        rand = self._random
        if self._outage_rate and rand() < self._outage_rate:
            self.outage_until[src, dst] = at + self.cfg.outage_cycles
            self.outages_started += 1
            self.drops_injected += 1
            return _DROPPED
        if self._loss_rate and rand() < self._loss_rate:
            self.drops_injected += 1
            return _DROPPED
        delay = 0
        if self._reorder_rate and rand() < self._reorder_rate:
            delay = self.rng.randrange(1, self.cfg.reorder_max_delay + 1)
            self.reorders_injected += 1
        if self._dup_rate and rand() < self._dup_rate:
            self.dups_injected += 1
            return DeliveryFate.DUPLICATED, delay
        return (DeliveryFate.DELIVERED, delay) if delay else _DELIVERED


@dataclass(slots=True)
class OutstandingEntry:
    """Sender-side state of one abandoned logical message, as the
    stall-watchdog dump surfaces it."""

    src: int
    dst: int
    seq: int
    kind: MessageKind | None
    item: int | None
    attempts: int = 0
    #: Simulation time the last attempt's retransmission timeout expires.
    backoff_deadline: int = 0
    abandoned: bool = False

    def describe(self) -> str:
        kind = self.kind.value if self.kind is not None else "?"
        state = "ABANDONED" if self.abandoned else f"deadline={self.backoff_deadline}"
        return (
            f"{self.src}->{self.dst} seq={self.seq} {kind} "
            f"item={self.item} attempts={self.attempts} {state}"
        )


@dataclass
class TransportDump:
    """Snapshot of transport state for diagnostics."""

    outstanding: list = field(default_factory=list)
    consecutive_timeouts: dict = field(default_factory=dict)

    def lines(self) -> list[str]:
        out = [
            "transport: "
            f"consecutive_timeouts={dict(sorted(self.consecutive_timeouts.items()))}"
        ]
        if not self.outstanding:
            out.append("  outstanding: none")
        for entry in self.outstanding:
            out.append(f"  outstanding: {entry.describe()}")
        return out


class ReliableTransport:
    """Reliable delivery over a (possibly) faulty fabric.

    Drop-in replacement for ``MeshFabric`` from the protocols' point of
    view.  ``stats`` is the machine's :class:`MachineStats` (transport
    counters live there so they survive result serialization); a fresh
    one is created for standalone use in tests.
    """

    def __init__(
        self,
        fabric: MeshFabric,
        cfg: TransportConfig | None = None,
        rng: random.Random | None = None,
        stats: MachineStats | None = None,
    ):
        self.cfg = cfg or TransportConfig()
        self.raw = fabric
        self.faults = LinkFaultModel(self.cfg, rng)
        self.stats = stats if stats is not None else MachineStats()
        # hot-path caches: the fault-model "active" property inlined
        # (``_forced`` aliases the model's deque, mutated in place only)
        self._unreliable = self.cfg.unreliable
        self._forced = self.faults._forced
        self._raw_transfer = fabric.transfer
        self._control_flits = fabric.latency.control_flits
        #: (src, dst) -> next sequence number to assign.
        self.next_seq: dict[tuple[int, int], int] = {}
        #: dst -> consecutive timeouts since the last successful ack.
        self.consecutive_timeouts: dict[int, int] = {}
        #: Abandoned messages, keyed by (src, dst); a later message of
        #: the pair that is acked retires its entry.
        self.outstanding: dict[tuple[int, int], OutstandingEntry] = {}
        #: Called with the destination node id when a destination
        #: crosses the suspicion threshold (Machine wires this to the
        #: detection path).
        self.on_suspect = None
        #: Called with no arguments when a retry storm begins (Machine
        #: wires this to the ``transport_retry_storm`` trigger window).
        self.on_retry_storm = None

    @property
    def latency(self):
        """The fabric's latency model (read by the protocols)."""
        return self.raw.latency

    # -- the reliable transfer ------------------------------------------

    def transfer(
        self,
        src: int,
        dst: int,
        flits: int,
        subnet: Subnet,
        depart: int,
        kind: MessageKind | None = None,
        item: int | None = None,
        data_bytes: int = 0,
    ) -> int:
        """Deliver one logical message exactly once; return the time its
        effect applies at ``dst`` (first successful delivery)."""
        if src == dst or not (self._unreliable or self._forced):
            # pay-for-use: a reliable transport over reliable links is
            # the identity — no draws, no counters, identical cycles
            return self._raw_transfer(
                src, dst, flits, subnet, depart, kind, item, data_bytes
            )
        return self._reliable_transfer(
            src, dst, flits, subnet, depart, kind, item, data_bytes
        )

    def _reliable_transfer(
        self,
        src: int,
        dst: int,
        flits: int,
        subnet: Subnet,
        depart: int,
        kind: MessageKind | None,
        item: int | None,
        data_bytes: int,
    ) -> int:
        cfg = self.cfg
        stats = self.stats
        raw = self._raw_transfer
        draw = self.faults.draw
        pair = (src, dst)
        seq = self.next_seq.get(pair, 0)
        self.next_seq[pair] = seq + 1
        ack_subnet = Subnet.REPLY if subnet is Subnet.REQUEST else Subnet.REQUEST
        ack_flits = self._control_flits

        send_time = depart
        timeout = cfg.timeout_cycles
        # the call is synchronous, so no other message of the pair can
        # interleave: every arrival after the first is a retransmission
        # the receiver's sequence check suppresses
        first_arrival: int | None = None
        attempts = 0

        while True:
            attempts += 1
            if attempts > cfg.abandon_attempts:
                self.outstanding[pair] = OutstandingEntry(
                    src=src, dst=dst, seq=seq, kind=kind, item=item,
                    attempts=attempts, backoff_deadline=send_time + timeout,
                    abandoned=True,
                )
                self._suspect(dst)
                from repro.coherence.standard import NodeUnavailable

                raise NodeUnavailable(dst, item if item is not None else -1)
            if attempts > 1:
                stats.transport_retries += 1
                stats.transport_retransmitted_flits += flits
            arrival = raw(src, dst, flits, subnet, send_time, kind, item, data_bytes)
            data_bytes = 0  # only the first copy counts as payload
            fate, delay = draw(src, dst, send_time)
            if fate is not _DROPPED_FATE:
                arrival += delay
                if first_arrival is None:
                    first_arrival = arrival
                else:
                    stats.transport_duplicates_suppressed += 1
                if fate is _DUPLICATED_FATE:
                    # the duplicate consumes bandwidth too, arrives with
                    # the same sequence number and is suppressed
                    raw(src, dst, flits, subnet, send_time, kind, item)
                    stats.transport_duplicates_suppressed += 1
                # the receiver's positive ack
                stats.transport_acks += 1
                raw(dst, src, ack_flits, ack_subnet, arrival, _ACK, item)
                fate, _ = draw(dst, src, arrival)
                if fate is not _DROPPED_FATE:
                    if fate is _DUPLICATED_FATE:
                        # a duplicated ack is harmless; the sender
                        # ignores the copy
                        raw(dst, src, ack_flits, ack_subnet, arrival, _ACK, item)
                        stats.transport_duplicates_suppressed += 1
                    self.consecutive_timeouts[dst] = 0
                    if self.outstanding:
                        self.outstanding.pop(pair, None)
                    return first_arrival
            # message or ack lost: the retransmission timeout expires
            stats.transport_timeouts += 1
            self._note_timeout(dst)
            send_time += timeout
            timeout = self._next_timeout(timeout)

    def _next_timeout(self, timeout: int) -> int:
        grown = min(int(timeout * self.cfg.backoff_factor), self.cfg.max_backoff_cycles)
        if self.cfg.jitter_fraction:
            jitter = int(grown * self.cfg.jitter_fraction * self.faults.rng.random())
            grown = min(grown + jitter, self.cfg.max_backoff_cycles)
        return max(1, grown)

    def _note_timeout(self, dst: int) -> None:
        count = self.consecutive_timeouts.get(dst, 0) + 1
        self.consecutive_timeouts[dst] = count
        if count == self.cfg.suspicion_threshold:
            self._suspect(dst)

    def _suspect(self, dst: int) -> None:
        self.stats.transport_suspicions += 1
        if self.on_retry_storm is not None:
            self.on_retry_storm()
        if self.on_suspect is not None:
            self.on_suspect(dst)

    # -- convenience wrappers (mirror MeshFabric) -----------------------

    def control(
        self,
        src: int,
        dst: int,
        subnet: Subnet,
        depart: int,
        kind: MessageKind | None = None,
        item: int | None = None,
    ) -> int:
        return self.transfer(src, dst, self._control_flits, subnet, depart, kind, item)

    def data(
        self,
        src: int,
        dst: int,
        item_bytes: int,
        depart: int,
        kind: MessageKind | None = None,
        item: int | None = None,
    ) -> int:
        lat = self.raw.latency
        flits = lat.control_flits + lat.item_flits(item_bytes)
        return self.transfer(src, dst, flits, Subnet.REPLY, depart, kind, item, item_bytes)

    # -- diagnostics ----------------------------------------------------

    def dump(self) -> TransportDump:
        """Snapshot for the stall-watchdog diagnostic."""
        return TransportDump(
            outstanding=sorted(
                self.outstanding.values(), key=lambda e: (e.src, e.dst)
            ),
            consecutive_timeouts={
                dst: n for dst, n in self.consecutive_timeouts.items() if n
            },
        )
