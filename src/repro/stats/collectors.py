"""Counters collected during a run.

Per-node counters live in :class:`NodeStats`; run-wide aggregation and
the paper's derived metrics (miss rates, injections per 10 000
references, replication throughput) are provided by
:class:`MachineStats`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field


@dataclass
class NodeStats:
    """Counters owned by one node."""

    node_id: int

    # reference stream
    refs: int = 0
    reads: int = 0
    writes: int = 0

    # accesses that reached the AM (i.e. processor-cache misses)
    am_read_accesses: int = 0
    am_write_accesses: int = 0
    # AM misses (needed a remote transaction)
    am_read_misses: int = 0
    am_write_misses: int = 0
    #: Reads served locally by a Shared-CK recovery copy (an ECP benefit
    #: the paper highlights in Section 4.2.3).
    sharedck_reads: int = 0

    # injections, by cause
    injections: Counter = field(default_factory=Counter)
    injection_probe_hops: int = 0
    bytes_injected: int = 0

    # checkpointing
    ckpt_items_replicated: int = 0
    ckpt_items_reused: int = 0
    ckpt_bytes_replicated: int = 0
    ckpt_create_cycles: int = 0
    ckpt_commit_cycles: int = 0
    ckpt_sync_cycles: int = 0

    # recovery
    recovery_scan_cycles: int = 0
    reconfig_items_recreated: int = 0

    # -- derived -------------------------------------------------------

    @property
    def am_accesses(self) -> int:
        return self.am_read_accesses + self.am_write_accesses

    @property
    def am_misses(self) -> int:
        return self.am_read_misses + self.am_write_misses

    def am_miss_rate(self) -> float:
        """AM misses per processor reference (the Fig. 5 metric)."""
        if self.refs == 0:
            return 0.0
        return self.am_misses / self.refs

    def am_read_miss_rate(self) -> float:
        if self.reads == 0:
            return 0.0
        return self.am_read_misses / self.reads

    def am_write_miss_rate(self) -> float:
        if self.writes == 0:
            return 0.0
        return self.am_write_misses / self.writes

    def injections_per_10k_refs(self, causes=None) -> float:
        """Injections per 10 000 memory references (Figs. 6 and 11)."""
        if self.refs == 0:
            return 0.0
        if causes is None:
            total = sum(self.injections.values())
        else:
            total = sum(self.injections[c] for c in causes)
        return total / self.refs * 10_000


@dataclass
class MachineStats:
    """Run-wide counters and aggregation over nodes."""

    # wall-clock decomposition (cycles)
    total_cycles: int = 0
    create_cycles: int = 0
    commit_cycles: int = 0
    recovery_cycles: int = 0

    n_checkpoints: int = 0
    n_recoveries: int = 0
    n_failures: int = 0
    # elastic membership (repro.machine.Machine.join_node and the
    # coordinator's leader handoff); all stay zero on static runs
    #: Nodes admitted mid-run (joins that reached catch-up).
    n_joins: int = 0
    #: Joins killed by a failure before catch-up completed.
    joins_aborted: int = 0
    #: Cycles between join admission and the node serving references.
    join_latency_cycles: int = 0
    #: Bytes moved to bring joiners current (pointer-partition reclaim
    #: plus per-strategy catch-up state).
    catchup_bytes: int = 0
    #: References the rest of the machine served while a join was in
    #: flight (the availability-under-reconfiguration metric).
    refs_during_reconfig: int = 0
    #: Deliberate leader handoffs applied by the coordinator.
    n_handoffs: int = 0
    #: Planned or triggered failures skipped because the target node was
    #: already dead at fire time (recorded no-ops, never errors).
    n_failures_skipped: int = 0
    #: References undone by recoveries: sum over rollbacks of how far
    #: each stream was rewound (the campaign's work-lost metric).
    rollback_refs: int = 0

    # reliable-delivery transport (repro.network.transport); all stay
    # zero unless the interconnect is configured unreliable
    #: Retransmissions of logical messages (attempts beyond the first).
    transport_retries: int = 0
    #: Retransmission timers that expired (lost message or lost ack).
    transport_timeouts: int = 0
    #: Flits that crossed the network more than once for one message.
    transport_retransmitted_flits: int = 0
    #: Deliveries discarded by receiver-side sequence checks.
    transport_duplicates_suppressed: int = 0
    #: Positive acks sent by receivers.
    transport_acks: int = 0
    #: Destinations escalated to the detection layer after consecutive
    #: timeouts (suspected failures, alive or not).
    transport_suspicions: int = 0
    #: Transport suspicions whose target was in fact alive (discarded
    #: by the idempotent ``detect_failure``).
    spurious_suspicions: int = 0

    # runtime verification (repro.verify): invariant evaluations and
    # the violations they surfaced
    invariant_checks: int = 0
    invariant_violations: int = 0

    node_stats: list[NodeStats] = field(default_factory=list)

    # -- aggregation ---------------------------------------------------

    def total(self, attr: str) -> int:
        return sum(getattr(ns, attr) for ns in self.node_stats)

    @property
    def refs(self) -> int:
        return self.total("refs")

    @property
    def reads(self) -> int:
        return self.total("reads")

    @property
    def writes(self) -> int:
        return self.total("writes")

    def injection_totals(self) -> Counter:
        result: Counter = Counter()
        for ns in self.node_stats:
            result.update(ns.injections)
        return result

    @property
    def compute_cycles(self) -> int:
        """Cycles not spent in checkpoint or recovery machinery: the
        baseline-comparable execution time component."""
        return (
            self.total_cycles
            - self.create_cycles
            - self.commit_cycles
            - self.recovery_cycles
        )

    def mean_am_miss_rate(self) -> float:
        rates = [ns.am_miss_rate() for ns in self.node_stats if ns.refs]
        return sum(rates) / len(rates) if rates else 0.0

    def mean_injections_per_10k(self, causes=None) -> float:
        values = [
            ns.injections_per_10k_refs(causes) for ns in self.node_stats if ns.refs
        ]
        return sum(values) / len(values) if values else 0.0

    def ckpt_bytes_replicated(self) -> int:
        return self.total("ckpt_bytes_replicated")

    def replication_throughput_bytes_per_s(self, cycle_seconds: float) -> float:
        """Aggregate recovery-data throughput during create phases
        (Figs. 4 and 9): bytes of recovery data moved or marked divided
        by the wall-clock time of the create phases.  Both numerator
        and denominator shrink together under workload scaling, so the
        metric is scale-robust."""
        if self.create_cycles == 0:
            return 0.0
        seconds = self.create_cycles * cycle_seconds
        return self.ckpt_bytes_replicated() / seconds

    def per_node_replication_throughput(self, cycle_seconds: float) -> float:
        live = len(self.node_stats)
        if live == 0:
            return 0.0
        return self.replication_throughput_bytes_per_s(cycle_seconds) / live
