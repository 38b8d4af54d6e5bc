"""The whole-machine façade.

:class:`Machine` assembles the substrates (engine, mesh fabric, ring,
nodes, directory, page registry), instantiates the chosen protocol
(standard or ECP), wires one processor per node to the workload's
reference streams, and runs the simulation to completion, returning a
:class:`RunResult`.

:class:`Coordinator` implements the global synchronisation of
Sections 3.3/3.4: the coordinated recovery-point establishment
(sync barrier -> parallel create -> barrier -> local commits ->
barrier) and the coordinated restoration (barrier -> parallel scans ->
metadata rebuild + reconfiguration -> resume), including the
failure-during-establishment rules (abort during create: the old
recovery point stays; complete during commit: the new one is already
persistent).
"""

from __future__ import annotations

import random
import time as _time
from collections import Counter
from dataclasses import dataclass, field
from typing import Generator

from repro.checkpoint.establish import EstablishmentFailed
from repro.checkpoint.recovery import UnrecoverableFailure
from repro.checkpoint.scheduler import checkpoint_scheduler
from repro.coherence.directory import Directory
from repro.coherence.ecp import ExtendedProtocol
from repro.coherence.standard import StandardProtocol
from repro.config import ArchConfig, mesh_dimensions
from repro.fault.failures import (
    FailurePlan,
    MembershipEvent,
    validate_failure_plan,
    validate_membership_plan,
)
from repro.fault.injector import fault_injector, membership_injector
from repro.fault.watchdog import stall_watchdog
from repro.kernel import resolve_backend
from repro.memory.pages import PageRegistry
from repro.memory.states import ItemState
from repro.network.fabric import MeshFabric
from repro.network.ring import LogicalRing
from repro.network.transport import ReliableTransport
from repro.network.topology import Mesh
from repro.node.node import Node
from repro.node.processor import Processor
from repro.recovery import build_strategy
from repro.sim.engine import Engine
from repro.sim.process import Process
from repro.sim.sync import EventFlag, MemberBarrier
from repro.stats.collectors import MachineStats
from repro.workloads.base import Workload

PROTOCOLS = {"standard": StandardProtocol, "ecp": ExtendedProtocol}

def _fault_model_fatal(message: str) -> UnrecoverableFailure:
    """An :class:`UnrecoverableFailure` the fault model *allows* to be
    fatal (overlapping failures, too few live memories).  The campaign
    classifier distinguishes these (``UNRECOVERABLE_EXPECTED``) from
    unrecoverable states the protocol should never reach
    (``SIMULATOR_BUG``) via the ``fault_model_fatal`` attribute."""
    return UnrecoverableFailure.fatal(message)


#: A modified item needs up to four copies in *distinct* memories while
#: a recovery point is established (Exclusive owner + the two Inv-CK
#: copies of the old point + the new Pre-Commit2 copy — Section 4.1,
#: which is also why four irreplaceable pages are reserved).  Below
#: four live nodes the ECP can no longer place recovery copies.  The
#: authoritative floor is ``RecoveryStrategy.min_live_nodes`` (pooled
#: and recompute survive down to a live pair); this constant is the
#: ECP's value, kept for the tests and docs that cite it.
MIN_LIVE_NODES_ECP = 4


@dataclass
class RunResult:
    """Everything a harness needs from one simulation run."""

    config: ArchConfig
    protocol: str
    workload: str
    stats: MachineStats
    pages_allocated: int
    pages_allocated_peak: int
    distinct_pages: int
    wall_seconds: float
    item_census: dict[str, int] = field(default_factory=dict)

    @property
    def total_cycles(self) -> int:
        return self.stats.total_cycles


#: Named protocol windows, in the order a run traverses them.  Entering
#: a window notifies ``Coordinator.window_listeners`` — the hook behind
#: phase-targeted fault injection (repro.fault.triggers) and the
#: campaign's phase-coverage accounting.
TRIGGER_WINDOWS = (
    "ckpt_sync",      # establishment requested, participants synchronising
    "ckpt_create",    # parallel create phase (Pre-Commit copies placed)
    "ckpt_commit",    # local commits between the 2nd and 3rd barrier
    "recovery_scan",  # parallel per-node recovery scans
    "reconfig",       # metadata rebuild + singleton re-replication
    # the reliable transport crossed its suspicion threshold toward one
    # destination (consecutive retransmission timeouts) — only entered
    # on an unreliable interconnect (repro.network.transport)
    "transport_retry_storm",
    # elastic membership (only entered on machines built with
    # ``initial_members < n_nodes`` or driven by a membership plan)
    "join_catchup",    # a joiner is catching up to the committed point
    "leader_handoff",  # a deliberate coordinator transfer was requested
)


class Coordinator:
    """Global checkpoint/recovery synchronisation."""

    def __init__(self, machine: "Machine"):
        self.machine = machine
        self.engine = machine.engine
        #: Nodes whose processors currently have work to execute.
        self.active: set[int] = set()
        #: Live nodes participating in global coordination — every live
        #: node takes part in checkpoints and recoveries even when its
        #: processor has no work, because its AM may hold recovery
        #: copies injected by others.
        self.participants: set[int] = set()
        self.last_retire_time = 0

        # checkpoint state
        self.ckpt_requested = False
        self.ckpt_epoch = 0
        self.ckpt_phase = "idle"  # idle | sync | create | commit
        self.ckpt_abort = False
        self.ckpt_done: EventFlag | None = None
        self.ckpt_barrier: MemberBarrier | None = None

        # recovery state
        self.recovery_requested = False
        self.recovery_epoch = 0
        self.rec_phase = "idle"  # idle | scan | reconfig
        self.recovery_done: EventFlag | None = None
        self.rec_barrier: MemberBarrier | None = None

        #: Callables invoked with a window name from ``TRIGGER_WINDOWS``
        #: whenever the coordination protocol enters that window.
        self.window_listeners: list = []

        self._work_flags: dict[int, EventFlag] = {}
        self._revival_flags: dict[int, EventFlag] = {}
        #: Leaders pinned per episode (avoids same-cycle races when the
        #: minimum participant changes mid-episode).
        self.ckpt_leader: int = -1
        self.rec_leader: int = -1
        #: Sticky leadership preferences set by deliberate handoffs
        #: (``request_leader_handoff``); ``None`` falls back to the
        #: minimum participant, the historical rule.
        self.preferred_leader: dict[str, int | None] = {"ckpt": None, "rec": None}

    # -- processor lifecycle ------------------------------------------------

    def retire(self, node_id: int) -> None:
        self.active.discard(node_id)
        self.last_retire_time = max(self.last_retire_time, self.engine.now)
        self._resize_barriers()

    def unretire(self, node_id: int) -> None:
        if node_id in self.active:
            return
        self.active.add(node_id)
        flag = self._work_flags.pop(node_id, None)
        if flag is not None:
            flag.fire()

    def work_flag(self, node_id: int) -> EventFlag:
        flag = EventFlag(self.engine, name=f"work{node_id}")
        self._work_flags[node_id] = flag
        return flag

    def revival_flag(self, node_id: int) -> EventFlag:
        flag = EventFlag(self.engine, name=f"revive{node_id}")
        self._revival_flags[node_id] = flag
        return flag

    def fire_revival(self, node_id: int) -> None:
        flag = self._revival_flags.pop(node_id, None)
        if flag is not None:
            flag.fire()

    def on_node_failed(self, node_id: int) -> None:
        self.active.discard(node_id)
        self.participants.discard(node_id)
        if self.ckpt_requested and self.ckpt_phase in ("sync", "create"):
            # a participant died before voting ready: committing now
            # would discard the old Inv-CK pairs of items whose only
            # current copy just vanished with the dead node.  Detection
            # also aborts (request_recovery), but it lags the failure by
            # the detection latency — long enough for the remaining
            # creates to finish and the commit barrier to pass.
            self.ckpt_abort = True
        if node_id == self.ckpt_leader and self.participants:
            # forced handoff: the leader died mid-episode
            self.ckpt_leader = self._pick_leader("ckpt")
        if node_id == self.rec_leader and self.participants:
            self.rec_leader = self._pick_leader("rec")
        self._resize_barriers()

    def on_node_revived(self, node_id: int) -> None:
        self.participants.add(node_id)
        processor = self.machine.processors[node_id]
        if processor.has_work():
            self.active.add(node_id)
        self.fire_revival(node_id)

    def on_node_joined(self, node_id: int) -> None:
        """An elastic join completed catch-up: the node enters global
        coordination from the *next* episode.  Its epoch counters are
        advanced past any episode currently in flight — the in-flight
        barrier was sized before the join (``MemberBarrier`` copies the
        member set), so the joiner is neither expected nor allowed
        there."""
        processor = self.machine.processors[node_id]
        processor.last_ckpt_epoch = self.ckpt_epoch
        processor.last_recovery_epoch = self.recovery_epoch
        self.participants.add(node_id)
        if processor.has_work():
            self.active.add(node_id)
        self.fire_revival(node_id)

    def request_leader_handoff(self, kind: str = "ckpt", target: int | None = None) -> int:
        """Deliberately transfer coordination leadership.

        ``kind`` picks the checkpoint ("ckpt") or recovery ("rec")
        leadership; ``target`` of ``None`` hands off to the smallest
        other participant.  The preference is sticky: every later
        episode elects the preferred leader while it stays a
        participant.  An in-flight episode keeps running — the transfer
        applies immediately while the episode is in a phase where no
        node can have reached the leader-finalize step (ckpt
        sync/create, recovery scan), and from the next episode
        otherwise (commit/reconfig), so an establishment is never
        aborted or double-finalized by a handoff.

        Returns the strategy-defined handoff cost in cycles (0 when
        there was nothing to hand off); callers running inside a
        simulation process should ``yield`` it.
        """
        if kind not in ("ckpt", "rec"):
            raise ValueError(f"unknown leadership kind {kind!r}; pick 'ckpt' or 'rec'")
        if not self.participants:
            return 0
        current = self.ckpt_leader if kind == "ckpt" else self.rec_leader
        if target is None:
            candidates = sorted(self.participants - {current})
            if not candidates:
                return 0
            target = candidates[0]
        if target not in self.participants:
            raise ValueError(f"handoff target {target} is not a participant")
        self.preferred_leader[kind] = target
        self._enter_window("leader_handoff")
        if kind == "ckpt":
            if self.ckpt_requested and self.ckpt_phase in ("sync", "create"):
                self.ckpt_leader = target
        else:
            if self.recovery_requested and self.rec_phase == "scan":
                self.rec_leader = target
        self.machine.stats.n_handoffs += 1
        return self.machine.recovery.handoff_cycles(kind)

    def _pick_leader(self, kind: str) -> int:
        preferred = self.preferred_leader[kind]
        if preferred is not None and preferred in self.participants:
            return preferred
        return min(self.participants)

    def _resize_barriers(self) -> None:
        """A node left the participant set: stop expecting it at the
        in-flight barriers (its stale arrivals are discarded too)."""
        for barrier in (self.ckpt_barrier, self.rec_barrier):
            if barrier is None:
                continue
            for member in list(barrier.expected - self.participants):
                barrier.remove_member(member)

    def _wake_parked(self) -> None:
        """Coordination involves parked processors too."""
        flags, self._work_flags = self._work_flags, {}
        for flag in flags.values():
            flag.fire()

    def _enter_window(self, window: str) -> None:
        """The protocol entered a named window; tell the listeners.

        Listeners run at the entry instant, inside the transition that
        opened the window — anything they schedule (e.g. a targeted
        failure) lands while the window is genuinely open.
        """
        for listener in list(self.window_listeners):
            listener(window)

    # -- checkpoints ----------------------------------------------------------

    def request_checkpoint(self) -> EventFlag | None:
        """Ask for a coordinated recovery point; returns a completion
        flag, or None when nothing can be checkpointed."""
        if self.ckpt_requested:
            return self.ckpt_done
        if self.recovery_requested or not self.participants:
            return None
        self.ckpt_requested = True
        self.ckpt_abort = False
        self.ckpt_epoch += 1
        self.ckpt_phase = "sync"
        self.ckpt_done = EventFlag(self.engine, name="ckpt_done")
        self.ckpt_barrier = MemberBarrier(
            self.engine, self.participants, name="ckpt"
        )
        self.ckpt_leader = self._pick_leader("ckpt")
        self._wake_parked()
        self._enter_window("ckpt_sync")
        return self.ckpt_done

    def participate_checkpoint(self, node_id: int) -> Generator[object, object, None]:
        machine = self.machine
        recovery = machine.recovery
        node = machine.nodes[node_id]
        barrier = self.ckpt_barrier
        done_flag = self.ckpt_done
        assert barrier is not None and done_flag is not None

        t_entry = self.engine.now
        yield barrier.arrive(node_id)
        if not node.alive:
            return
        t_start = self.engine.now
        node.stats.ckpt_sync_cycles += t_start - t_entry
        if self.ckpt_phase != "create":
            self.ckpt_phase = "create"
            recovery.begin_establishment()
            self._enter_window("ckpt_create")

        if node.alive and not self.ckpt_abort:
            try:
                yield from recovery.node_create_phase(
                    node_id,
                    should_abort=lambda: self.ckpt_abort or not node.alive,
                )
            except EstablishmentFailed:
                # cannot place a recovery copy (e.g. too few live
                # memories): abort — the old recovery point is intact
                self.ckpt_abort = True
        if not node.alive:
            return
        yield barrier.arrive(node_id)
        if not node.alive:
            return
        t_mid = self.engine.now
        if self.ckpt_phase != "commit":
            self.ckpt_phase = "commit"
            self._enter_window("ckpt_commit")

        aborted = self.ckpt_abort
        if node.alive and not aborted:
            cost = recovery.commit_node(node_id)
            node.stats.ckpt_commit_cycles += cost
            if cost:
                yield cost
        elif node.alive and aborted and not self.recovery_requested:
            # failure-free abort: revert the half-established recovery
            # data to current state (a failure-triggered abort leaves
            # it for the recovery scan instead)
            recovery.abort_node(node_id)
        if not node.alive:
            return
        yield barrier.arrive(node_id)
        if not node.alive:
            return
        t_end = self.engine.now
        node.stats.ckpt_create_cycles += t_mid - t_start

        if node_id == self.ckpt_leader:
            ms = machine.stats
            ms.create_cycles += t_mid - t_start
            ms.commit_cycles += t_end - t_mid
            if not aborted:
                ms.n_checkpoints += 1
                machine.snapshot_streams()
                machine.notify_verifiers("on_establishment_complete")
            elif not self.recovery_requested:
                # failure-free abort: the Pre-Commit copies were
                # reverted; a failure-triggered abort instead leaves
                # them for the recovery scan, which notifies on its own
                machine.notify_verifiers("on_establishment_aborted")
            self.ckpt_phase = "idle"
            self.ckpt_requested = False
            done_flag.fire()

    # -- recovery -----------------------------------------------------------------

    def request_recovery(self) -> EventFlag | None:
        if self.recovery_requested:
            return self.recovery_done
        if not self.participants:
            return None
        self.recovery_requested = True
        self.recovery_epoch += 1
        self.recovery_done = EventFlag(self.engine, name="recovery_done")
        self.rec_barrier = MemberBarrier(
            self.engine, self.participants, name="rec"
        )
        self.rec_leader = self._pick_leader("rec")
        self._wake_parked()
        if self.ckpt_requested and self.ckpt_phase in ("sync", "create"):
            # failure during the create phase: abort — the previous
            # recovery point is still intact (Section 3.3)
            self.ckpt_abort = True
        return self.recovery_done

    def participate_recovery(self, node_id: int) -> Generator[object, object, None]:
        machine = self.machine
        recovery = machine.recovery
        node = machine.nodes[node_id]
        barrier = self.rec_barrier
        done_flag = self.recovery_done
        assert barrier is not None and done_flag is not None

        yield barrier.arrive(node_id)
        if not node.alive:
            return
        t0 = self.engine.now
        if self.rec_phase != "scan":
            self.rec_phase = "scan"
            self._enter_window("recovery_scan")
        cost = recovery.scan_node(node_id)
        node.stats.recovery_scan_cycles += cost
        if cost:
            yield cost
        if not node.alive:
            return
        yield barrier.arrive(node_id)
        if not node.alive:
            return

        if node_id == self.rec_leader:
            self.rec_phase = "reconfig"
            self._enter_window("reconfig")
            yield from recovery.reconfigure()
            machine.rewind_streams()
            machine.stats.n_recoveries += 1
            machine.stats.recovery_cycles += self.engine.now - t0
            self.rec_phase = "idle"
            self.recovery_requested = False
            machine.after_recovery()
            machine.notify_verifiers("on_recovery_complete")
            done_flag.fire()
        else:
            yield done_flag


class Machine:
    """Build and run one simulated machine."""

    def __init__(
        self,
        config: ArchConfig,
        workload: Workload,
        protocol: str = "ecp",
        failure_plan: list[FailurePlan] | None = None,
        checkpointing: bool | None = None,
        record_network_trace: bool = False,
        stall_cycle_budget: int | None = None,
        recovery_strategy: str = "ecp",
        initial_members: int | None = None,
        membership_plan: list[MembershipEvent] | None = None,
        backend: str | None = None,
    ):
        if protocol not in PROTOCOLS:
            raise ValueError(f"unknown protocol {protocol!r}; pick {sorted(PROTOCOLS)}")
        if recovery_strategy != "ecp" and protocol != "ecp":
            raise ValueError(
                "recovery strategies ride on the ECP machine; "
                f"protocol {protocol!r} cannot host {recovery_strategy!r}"
            )
        members = config.n_nodes if initial_members is None else initial_members
        if not 1 <= members <= config.n_nodes:
            raise ValueError(
                f"initial_members must be in 1..{config.n_nodes}, got {members}"
            )
        if members != config.n_nodes and protocol != "ecp":
            raise ValueError("elastic membership rides on the ECP machine")
        #: Nodes 0..initial_members-1 are members from cycle 0; the rest
        #: are installed capacity waiting for a ``join_node`` admission.
        self.initial_members = members
        self.cfg = config
        self.workload = workload
        self.protocol_name = protocol
        self.engine = Engine()
        width, height = mesh_dimensions(config.n_nodes)
        self.mesh = Mesh(width, height)
        self.fabric = MeshFabric(self.mesh, config.latency, record_trace=record_network_trace)
        self.ring = LogicalRing(self.mesh)
        self.nodes = [
            Node(i, config, joined=(i < members)) for i in range(config.n_nodes)
        ]
        # unjoined slots are off the injection ring until they join
        for i in range(members, config.n_nodes):
            self.ring.mark_dead(i)
        reserved = (
            config.am.reserved_frames_per_page if protocol == "ecp" else 1
        )
        self.registry = PageRegistry(
            config.n_nodes, config.am.n_frames, reserved_frames_per_page=reserved,
            n_members=members,
        )
        self.directory = Directory(config.n_nodes, config.items_per_page)
        self.rng = random.Random(config.seed)
        self.stats = MachineStats(node_stats=[n.stats for n in self.nodes])
        # the protocols ride on the reliable transport, never on the raw
        # fabric; with every fault rate at zero it is pure pass-through
        # (no rng draws, identical cycle arithmetic).  The fault model's
        # rng is decoupled from the protocol's so enabling link faults
        # never perturbs victim picks or workload generation.
        self.transport = ReliableTransport(
            self.fabric,
            config.transport,
            rng=random.Random(config.seed ^ 0x7E5EED),
            stats=self.stats,
        )
        self.protocol = PROTOCOLS[protocol](
            config,
            self.transport,
            self.ring,
            self.nodes,
            self.directory,
            self.registry,
            rng=self.rng,
        )
        self.coordinator = Coordinator(self)
        #: Pluggable recovery backend (repro.recovery); "ecp" is the
        #: paper's scheme and is bit-identical to the pre-interface
        #: machine.
        self.recovery = build_strategy(recovery_strategy, self)
        self.transport.on_suspect = self._on_transport_suspect
        self.transport.on_retry_storm = lambda: self.coordinator._enter_window(
            "transport_retry_storm"
        )

        # wire workload streams to processors (stream p -> node p % N);
        # streams homed on an unjoined slot are fostered on a member
        # until the slot joins (join_node moves them home)
        self.processors = [Processor(self, i) for i in range(config.n_nodes)]
        for stream in workload.build_streams():
            target = stream.proc_id % config.n_nodes
            if target >= members:
                target = stream.proc_id % members
            self.processors[target].assign(stream)
        #: Pluggable kernel backend (repro.kernel): accelerates stream
        #: generation (and, compiled, the cache-hit batch loop) without
        #: changing any observable result — every backend is held to
        #: the golden digests.  ``None`` follows the process default
        #: (repro.kernel.get_default_backend, what --backend sets).
        self.kernel = resolve_backend(backend)
        #: Optional compiled hit-drain hook installed by the backend;
        #: the processor batch loop consults it once per run.
        self.kernel_drain = None
        self.kernel.attach(self)
        self._stream_snapshot: dict[int, int] = {}
        self.snapshot_streams()  # position 0 is the initial recovery point

        self._permanently_dead: set[int] = set()
        self._pending_revival: dict[int, int] = {}  # node -> ready time
        self._detected: set[int] = set()

        #: Attached verification observers (repro.verify).  Each hook may
        #: implement on_establishment_complete / on_establishment_aborted /
        #: on_failure / on_recovery_complete; missing methods are skipped.
        self.verify_hooks: list = []

        # fault-tolerance machinery only exists on the ECP machine
        if checkpointing is None:
            checkpointing = protocol == "ecp"
        if checkpointing and protocol != "ecp":
            raise ValueError("checkpointing requires the ECP")
        self.checkpointing = checkpointing
        #: Extra (name, generator) simulation processes started with the
        #: machine — e.g. the heartbeat monitor of repro.fault.detection.
        self.extra_processes: list[tuple[str, object]] = []
        self.failure_plan = list(failure_plan or [])
        if self.failure_plan and protocol != "ecp":
            raise ValueError("the standard protocol cannot survive failures")
        self.membership_plan = list(membership_plan or [])
        if self.membership_plan and protocol != "ecp":
            raise ValueError("the standard protocol cannot change membership")
        validate_membership_plan(self.membership_plan, config.n_nodes, members)
        validate_failure_plan(
            self.failure_plan, config.n_nodes,
            initial_members=members, membership_plan=self.membership_plan,
        )
        #: Node currently in join catch-up (``None`` outside a join);
        #: the JOINER trigger target resolves against this.
        self._joining: int | None = None
        #: No-progress cycle budget for the stall watchdog; ``None``
        #: leaves the watchdog off (plain runs cannot livelock without
        #: failures, and tests drive machines by hand).
        self.stall_cycle_budget = stall_cycle_budget
        if stall_cycle_budget is not None and stall_cycle_budget <= 0:
            raise ValueError("stall_cycle_budget must be positive")

        self._started = False

    # -- verification hooks (repro.verify) -------------------------------------

    def notify_verifiers(self, event: str, *args) -> None:
        for hook in self.verify_hooks:
            handler = getattr(hook, event, None)
            if handler is not None:
                handler(*args)

    def attach_verifier(self, raise_on_violation: bool = True):
        """Attach a runtime invariant observer (see repro.verify)."""
        from repro.verify.observer import InvariantObserver

        observer = InvariantObserver(self, raise_on_violation=raise_on_violation)
        observer.attach()
        self.verify_hooks.append(observer)
        return observer

    def attach_oracle(self):
        """Attach a shadow data-value oracle (see repro.verify.values)."""
        from repro.verify.values import VersionOracle

        oracle = VersionOracle(self)
        oracle.attach()
        self.verify_hooks.append(oracle)
        return oracle

    # -- lifecycle ------------------------------------------------------------

    def _start_processes(self) -> None:
        # every member's processor runs: even work-less nodes participate
        # in checkpoints, since their AMs receive injected copies.
        # Unjoined slots get a processor too — it parks on the revival
        # flag that join_node fires once catch-up completes.
        for processor in self.processors:
            if not self.nodes[processor.node_id].joined:
                continue
            self.coordinator.participants.add(processor.node_id)
            if processor.has_work():
                self.coordinator.active.add(processor.node_id)
        for processor in self.processors:
            Process(self.engine, processor.run(), name=f"cpu{processor.node_id}")
        if self.checkpointing:
            Process(self.engine, checkpoint_scheduler(self), name="ckpt-sched")
        if self.failure_plan:
            Process(self.engine, fault_injector(self, self.failure_plan), name="faults")
        if self.membership_plan:
            Process(
                self.engine,
                membership_injector(self, self.membership_plan),
                name="membership",
            )
        if self.stall_cycle_budget is not None:
            Process(
                self.engine,
                stall_watchdog(self, self.stall_cycle_budget),
                name="watchdog",
            )
        for name, gen in self.extra_processes:
            Process(self.engine, gen, name=name)
        self._started = True

    def run(self, max_cycles: int | None = None, max_events: int | None = None) -> RunResult:
        """Run the simulation to completion and collect results."""
        if self._started:
            raise RuntimeError("machine already ran")
        wall0 = _time.perf_counter()
        self._start_processes()
        self.engine.run(until=max_cycles, max_events=max_events)
        self.stats.total_cycles = self.coordinator.last_retire_time
        return RunResult(
            config=self.cfg,
            protocol=self.protocol_name,
            workload=self.workload.name,
            stats=self.stats,
            pages_allocated=self.registry.pages_allocated_machine_wide(),
            pages_allocated_peak=self.registry.frames_in_use_peak,
            distinct_pages=len(self.registry.distinct_pages),
            wall_seconds=_time.perf_counter() - wall0,
            item_census=self.item_census(),
        )

    # -- stream snapshot / rewind (the OS side of BER) ----------------------------

    def all_streams(self):
        for processor in self.processors:
            yield from processor.streams

    def snapshot_streams(self) -> None:
        self._stream_snapshot = {s.proc_id: s.position for s in self.all_streams()}

    def rewind_streams(self) -> None:
        for stream in self.all_streams():
            target = self._stream_snapshot.get(stream.proc_id, 0)
            # references past the recovery point are rolled back: work
            # lost to the failure (the campaign's rollback-distance metric)
            self.stats.rollback_refs += max(0, stream.position - target)
            stream.rewind_to(target)
        # a rewind may hand work back to processors that had finished
        for processor in self.processors:
            if processor.has_work() and self.nodes[processor.node_id].alive:
                self.coordinator.unretire(processor.node_id)

    # -- elastic membership ------------------------------------------------------------

    def join_node(self, node_id: int) -> Generator[object, object, None]:
        """Admit an installed-but-unjoined node to the running machine.

        A simulation-process generator (``yield`` values are cycle
        delays).  The join handshake:

        1. the node powers on with empty memory and is counted a member
           (its frames back the reservation; a failure can now target
           it — a join is killable);
        2. the recovery strategy runs its catch-up: the node reclaims
           its localization-pointer partition from the ring successor
           that hosted it and syncs whatever per-strategy state brings
           it to the last committed recovery point;
        3. only then does the node start serving references: it enters
           the injection ring, joins coordination from the next episode,
           and adopts the reference streams fostered elsewhere on its
           behalf.

        A failure that kills the joiner mid-catch-up aborts the join
        through the ordinary failure path (wipe, detection, recovery);
        a transient such failure leaves the node a member that died —
        its later revival follows the normal transient-rejoin path.
        """
        node = self.nodes[node_id]
        if node.joined:
            raise ValueError(f"node {node_id} is already a member")
        if self.protocol_name != "ecp":
            raise RuntimeError("the standard protocol cannot change membership")
        t0 = self.engine.now
        refs0 = self.stats.refs
        self._joining = node_id
        try:
            node.join()
            self.stats.n_joins += 1
            self.registry.on_node_joined(node_id)
            self.coordinator._enter_window("join_catchup")
            yield from self.recovery.join_node(node_id)
            # admission completes only between coordination episodes
            # (like a transient revival): serving references while the
            # rest of the machine is inside an establishment would read
            # Pre-Commit state no static run ever exposes
            while node.alive and (
                self.coordinator.ckpt_requested
                or self.coordinator.recovery_requested
            ):
                flag = (
                    self.coordinator.recovery_done
                    if self.coordinator.recovery_requested
                    else self.coordinator.ckpt_done
                )
                if flag is None:
                    yield 1
                else:
                    yield flag
            if not node.alive or node_id in self.coordinator.participants:
                # killed mid-catch-up (and possibly already revived
                # through the transient path): the join itself aborted
                self.stats.joins_aborted += 1
                return
            node.pointers_rehosted = True
            self.ring.revive(node_id)
            self._adopt_home_streams(node_id)
            self.coordinator.on_node_joined(node_id)
            self.stats.join_latency_cycles += self.engine.now - t0
            self.stats.refs_during_reconfig += self.stats.refs - refs0
        finally:
            self._joining = None

    def _adopt_home_streams(self, node_id: int) -> None:
        """Completion of a join: reference streams homed on the joiner
        (fostered on members at build time) move home, positions
        preserved — the joiner resumes them where the foster left off."""
        n = self.cfg.n_nodes
        home = self.processors[node_id]
        for processor in self.processors:
            if processor is home:
                continue
            moved = [s for s in processor.streams if s.proc_id % n == node_id]
            if not moved:
                continue
            processor.streams[:] = [
                s for s in processor.streams if s.proc_id % n != node_id
            ]
            for stream in moved:
                home.assign(stream)
            if not processor.has_work():
                self.coordinator.retire(processor.node_id)

    # -- failures ---------------------------------------------------------------------

    def fail_node(self, node_id: int, permanent: bool = False, repair_delay: int = 0) -> None:
        """Fail-silent node failure at the current simulation time."""
        node = self.nodes[node_id]
        if not node.alive:
            raise ValueError(f"node {node_id} is already down")
        if self.protocol_name != "ecp":
            raise RuntimeError("the standard protocol cannot survive failures")
        if self.coordinator.recovery_requested:
            raise _fault_model_fatal(
                "a second node failed while a recovery was in progress"
            )
        live_after = sum(1 for n in self.nodes if n.alive) - 1
        if live_after < self.recovery.min_live_nodes:
            raise _fault_model_fatal(
                f"only {live_after} live nodes would remain; the "
                f"{self.recovery.name} recovery strategy needs at least "
                f"{self.recovery.min_live_nodes} to keep the machine "
                "recoverable"
            )
        node.fail()
        self.stats.n_failures += 1
        self.registry.on_node_failed(node_id)
        self.directory.wipe_node(node_id)
        self.ring.mark_dead(node_id)
        self.coordinator.on_node_failed(node_id)
        if permanent:
            self._permanently_dead.add(node_id)
            self._migrate_streams(node_id)
        else:
            self._pending_revival[node_id] = self.engine.now + repair_delay
        self.engine.schedule(
            self.cfg.ft.detection_latency, lambda: self.detect_failure(node_id)
        )

    def _on_transport_suspect(self, node_id: int) -> None:
        """The transport crossed its consecutive-timeout threshold
        toward ``node_id``: feed the ordinary detection path.  The
        suspicion runs through the event heap (the transport fires
        inside a protocol transaction, under a running processor
        generator) and through the idempotent ``detect_failure``, which
        discards it if the node is in fact alive — counted here as a
        spurious suspicion."""
        if self.nodes[node_id].alive:
            self.stats.spurious_suspicions += 1
        self.engine.schedule(0, lambda: self.detect_failure(node_id))

    def detect_failure(self, node_id: int) -> None:
        """Idempotent failure detection; triggers the global recovery."""
        if node_id in self._detected:
            return
        if self.nodes[node_id].alive:
            return  # already revived (stale detection event)
        self._detected.add(node_id)
        self.coordinator.request_recovery()

    def _migrate_streams(self, dead_node: int) -> None:
        """Permanent failure: the dead node's processes restart on the
        least-loaded live node after the rollback."""
        streams = self.processors[dead_node].take_streams()
        if not streams:
            return
        live = [p for p in self.processors if self.nodes[p.node_id].alive]
        if not live:
            raise _fault_model_fatal("no live node left to adopt the work")
        target = min(live, key=lambda p: len(p.streams))
        for stream in streams:
            target.assign(stream)

    def after_recovery(self) -> None:
        """Called by the recovery leader once restoration completed."""
        self._detected.clear()
        for node_id, ready_at in sorted(self._pending_revival.items()):
            delay = max(0, ready_at - self.engine.now)
            self.engine.schedule(delay, lambda n=node_id: self._revive_node(n))
        self._pending_revival.clear()
        # processors with restored work resume
        for processor in self.processors:
            if processor.has_work() and self.nodes[processor.node_id].alive:
                self.coordinator.unretire(processor.node_id)

    def _revive_node(self, node_id: int) -> None:
        if self.coordinator.ckpt_requested or self.coordinator.recovery_requested:
            # rejoin only between coordination episodes
            self.engine.schedule(1000, lambda: self._revive_node(node_id))
            return
        node = self.nodes[node_id]
        if node.alive:
            return
        node.revive()
        self.ring.revive(node_id)
        self.coordinator.on_node_revived(node_id)

    # -- auditing (tests and invariants) ----------------------------------------------

    def item_census(self) -> dict[str, int]:
        """Count item copies by state name across live nodes."""
        counts: Counter = Counter()
        for node in self.nodes:
            if node.alive:
                for states in node.am.frame_states():
                    counts.update(states)  # counted in C, per frame
        counts.pop(ItemState.INVALID, None)
        return {state.name: n for state, n in counts.items()}

    def items_by_state(self) -> dict[int, dict[ItemState, list[int]]]:
        """item -> {state: [holder nodes]} over live nodes."""
        result: dict[int, dict[ItemState, list[int]]] = {}
        for node in self.nodes:
            if not node.alive:
                continue
            for item, state in node.am.non_invalid_items():
                result.setdefault(item, {}).setdefault(state, []).append(node.node_id)
        return result

    def check_invariants(self, ctx=None) -> None:
        """Assert the global protocol invariants on the current state
        (the DESIGN.md I1-I4 set, extended by repro.verify.invariants).

        ``ctx`` is an optional :class:`repro.verify.invariants.CheckContext`
        relaxing phase-dependent invariants; the default is the strict
        steady-state set.
        """
        from repro.verify.invariants import (
            STRICT,
            check_machine,
            dump_state,
            format_violations,
        )

        violations = check_machine(self, STRICT if ctx is None else ctx)
        if violations:
            raise AssertionError(
                "invariant violations:\n"
                f"{format_violations(violations)}\n"
                f"global state:\n{dump_state(self)}"
            )
