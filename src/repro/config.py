"""Architecture configuration for the fault-tolerant COMA simulator.

All physical parameters default to the values of Section 4.2.2 of the
paper (KSR1-like node, COMA-F-like protocol, 2-D wormhole mesh).  The
latency components are calibrated so that the uncontended read-miss
latencies of Table 2 are reproduced exactly:

======================================  =========
Read miss access                        cycles
======================================  =========
Fill from cache                         1
Fill from local AM                      18
Fill from remote AM (1 hop)             116
Fill from remote AM (2 hops)            124
======================================  =========

A network transfer of ``f`` flits over ``h`` hops takes ``4 h + f``
cycles uncontended (pipelined wormhole: one flit per cycle of
serialization, 4 cycles of per-hop routing cost per direction,
calibrated to Table 2's +8 cycles per extra round-trip hop).  The
decomposition of a remote fill over ``h`` hops is then::

    local_am_fill (18) + req_launch (12) + request transfer (4 h + 4)
    + remote_am_service (20) + reply transfer (4 h + 4 + 32) + fill (18)
    = 108 + 8 h

which yields 116 cycles at one hop and +8 cycles per additional hop, as
in the paper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace


def mesh_dimensions(n_nodes: int) -> tuple[int, int]:
    """Return (width, height) of the most square mesh holding ``n_nodes``.

    The paper evaluates 9 to 56 nodes; 9 maps to 3x3, 16 to 4x4, 30 to
    6x5, 42 to 7x6 and 56 to 8x7.  A perfect rectangle is required so
    that XY routing covers every node.
    """
    if n_nodes <= 0:
        raise ValueError(f"n_nodes must be positive, got {n_nodes}")
    best: tuple[int, int] | None = None
    for width in range(1, n_nodes + 1):
        if n_nodes % width == 0:
            height = n_nodes // width
            if best is None or abs(width - height) < abs(best[0] - best[1]):
                best = (width, height)
    assert best is not None
    if best[0] == 1 and n_nodes > 3:
        # A prime node count would degenerate into a line; refuse so the
        # caller picks a rectangular count like the paper does.
        raise ValueError(
            f"n_nodes={n_nodes} only factors as a 1x{n_nodes} line; "
            "pick a rectangular node count (9, 16, 30, 42, 56, ...)"
        )
    return best


@dataclass(frozen=True)
class CacheConfig:
    """Sectored processor data cache (KSR1-like)."""

    size_bytes: int = 256 * 1024
    associativity: int = 8
    sector_bytes: int = 2048
    line_bytes: int = 64

    @property
    def n_sectors(self) -> int:
        return self.size_bytes // self.sector_bytes

    @property
    def n_sets(self) -> int:
        return self.n_sectors // self.associativity

    @property
    def lines_per_sector(self) -> int:
        return self.sector_bytes // self.line_bytes

    def validate(self) -> None:
        if self.size_bytes % self.sector_bytes:
            raise ValueError("cache size must be a multiple of the sector size")
        if self.sector_bytes % self.line_bytes:
            raise ValueError("sector size must be a multiple of the line size")
        if self.n_sectors % self.associativity:
            raise ValueError("sector count must be a multiple of associativity")


@dataclass(frozen=True)
class AMConfig:
    """Attraction memory: a large set-associative cache of the address space."""

    size_bytes: int = 8 * 1024 * 1024
    associativity: int = 16
    page_bytes: int = 16 * 1024
    item_bytes: int = 128
    #: Frames reserved per address-space page so injections and
    #: recovery-point establishment always find room (the paper reserves
    #: four irreplaceable pages with the ECP, one with the standard
    #: protocol).
    reserved_frames_per_page: int = 4

    @property
    def n_frames(self) -> int:
        return self.size_bytes // self.page_bytes

    @property
    def n_sets(self) -> int:
        return self.n_frames // self.associativity

    @property
    def items_per_page(self) -> int:
        return self.page_bytes // self.item_bytes

    def validate(self) -> None:
        if self.size_bytes % self.page_bytes:
            raise ValueError("AM size must be a multiple of the page size")
        if self.page_bytes % self.item_bytes:
            raise ValueError("page size must be a multiple of the item size")
        if self.n_frames % self.associativity:
            raise ValueError("frame count must be a multiple of associativity")


@dataclass(frozen=True)
class LatencyConfig:
    """Cycle costs of the memory system, calibrated to Table 2."""

    cache_hit: int = 1
    #: Cache miss serviced by the local AM (Table 2).
    local_am_fill: int = 18
    #: Miss handling plus request-packet launch into the NI.
    req_launch: int = 12
    #: Per-hop cost on each subnetwork; Table 2 shows +8 cycles per extra
    #: hop for the request/reply round trip, i.e. 4 cycles per direction.
    hop: int = 4
    #: Accessing and transferring a 128-byte item from a remote AM to its
    #: network controller (Section 4.2.2).
    remote_am_service: int = 20
    #: NI-to-AM/cache fill and processor restart at the requester.
    fill: int = 18
    #: Flit width is 32 bits; a 128-byte item serializes as 32 flits at
    #: one flit per cycle.
    flit_bytes: int = 4
    #: Size of a control packet (request, invalidation, ack) in flits.
    control_flits: int = 4
    #: The injection acknowledgement is sent 5 cycles after the item is
    #: received on the accepting node (Section 4.2.2).
    inject_ack: int = 5
    #: Directory/localization-pointer lookup when a request is indirected
    #: through the pointer home node.
    pointer_lookup: int = 4
    #: Commit-phase scan: 1 cycle to test whether a page is allocated and
    #: 1 cycle to test/modify the state of an item (Section 4.2.2).
    commit_page_test: int = 1
    commit_item_test: int = 1
    #: Writing one dirty cache line back into the local AM (SRAM write).
    cache_writeback_line: int = 2

    def item_flits(self, item_bytes: int) -> int:
        return (item_bytes + self.flit_bytes - 1) // self.flit_bytes


@dataclass(frozen=True)
class FaultToleranceConfig:
    """ECP-specific knobs."""

    #: Recovery points per second of (20 MHz) execution.  The paper
    #: sweeps 400, 100, 20 and 5 points per second.
    checkpoint_frequency_hz: float = 100.0
    #: Tests and micro-benchmarks may pin the period directly (cycles);
    #: overrides the frequency when set.
    checkpoint_period_override: int | None = None
    #: Measure the recovery-point period in *references executed per
    #: processor* instead of cycles.  At full scale the two coincide
    #: (period_refs = clock / frequency x reference density); on scaled
    #: runs, whose memory-system costs per reference differ from the
    #: KSR1's, reference indexing keeps the paper's per-checkpoint
    #: quantities — recovery data volume, injections per 10k references
    #: — exactly comparable.  Ignored when the override is set.
    period_in_references: bool = True
    #: Divide all checkpoint periods by this factor.  The experiment
    #: harnesses run scaled-down workloads whose write working sets are
    #: proportionally smaller than the real applications'; compressing
    #: the periods by the same order keeps both the number of recovery
    #: points per run and the incremental-checkpoint saturation (items
    #: modified per period vs. write working set) in the paper's
    #: regime.  1 (no compression) for full-scale runs.
    frequency_compression: float = 1.0
    #: Reuse an existing Shared replica as the second Pre-Commit copy of a
    #: Master-Shared item instead of injecting a fresh copy (the
    #: optimisation of Section 3.3).  Exposed for the A4 ablation.
    reuse_shared_replicas: bool = True
    #: Maintain per-node and per-item recovery-point counters so the
    #: commit phase needs no memory scan (the optimisation suggested at
    #: the end of Section 4.2.3, which "would nullify T_commit").
    commit_counters: bool = False
    #: Cycles between a node failure and its detection (fail-silent
    #: nodes; detection itself is out of the paper's scope).
    detection_latency: int = 1000


@dataclass(frozen=True)
class TransportConfig:
    """Unreliable-interconnect model + reliable-delivery transport knobs.

    The paper assumes the interconnect delivers every message exactly
    once; :mod:`repro.network.transport` earns that property end-to-end
    with acks, timeouts and retransmission.  All fault rates default to
    zero, in which case the transport is pass-through: no random draws,
    no extra cycles, bit-identical Table 2 latencies (pay-for-use).
    """

    #: Probability an individual packet (message or ack) is lost.
    loss_rate: float = 0.0
    #: Probability a delivered packet is duplicated in flight (the
    #: duplicate consumes bandwidth and is suppressed at the receiver).
    dup_rate: float = 0.0
    #: Probability a delivered packet is delayed past packets sent
    #: after it (modelled as an extra delivery delay).
    reorder_rate: float = 0.0
    #: Maximum extra delivery delay (cycles) of a reordered packet.
    reorder_max_delay: int = 64
    #: Probability a transfer trips a transient outage of its (src, dst)
    #: path; every packet on that path is lost until the outage ends.
    outage_rate: float = 0.0
    #: Duration of a transient link outage (cycles).
    outage_cycles: int = 2_000
    #: Retransmission timeout after the first (un-acked) attempt.  Must
    #: exceed the worst-case uncontended round trip: at the paper's
    #: largest mesh (8x7, 13 hops each way) a data packet plus its ack
    #: take 4*13+36 + 4*13+4 = 144 cycles plus service time.
    timeout_cycles: int = 400
    #: Timeout multiplier per consecutive retransmission (exponential
    #: backoff).
    backoff_factor: float = 2.0
    #: Backoff ceiling (cycles).
    max_backoff_cycles: int = 6_400
    #: Uniform jitter applied to each backoff interval, as a fraction
    #: of the interval (decorrelates retry storms).
    jitter_fraction: float = 0.25
    #: Consecutive timeouts to one destination before the transport
    #: reports it as a *suspected* failure to the detection layer (the
    #: ECP recovery path, not the transport, decides what to do).
    suspicion_threshold: int = 3
    #: Hard cap on delivery attempts for one message before the sender
    #: gives up and surfaces the destination as unavailable.  At any
    #: plausible loss rate p, p^64 is unreachable; this is a livelock
    #: backstop, not a tuning knob.
    abandon_attempts: int = 64

    @property
    def unreliable(self) -> bool:
        """True when any link-fault knob is active."""
        return (
            self.loss_rate > 0.0
            or self.dup_rate > 0.0
            or self.reorder_rate > 0.0
            or self.outage_rate > 0.0
        )

    def validate(self) -> None:
        for name in ("loss_rate", "dup_rate", "reorder_rate", "outage_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {rate}")
        if self.timeout_cycles <= 0:
            raise ValueError("timeout_cycles must be positive")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")
        if self.max_backoff_cycles < self.timeout_cycles:
            raise ValueError("max_backoff_cycles must be >= timeout_cycles")
        if not 0.0 <= self.jitter_fraction <= 1.0:
            raise ValueError("jitter_fraction must be in [0, 1]")
        if self.suspicion_threshold < 1:
            raise ValueError("suspicion_threshold must be >= 1")
        if self.abandon_attempts < self.suspicion_threshold:
            raise ValueError("abandon_attempts must be >= suspicion_threshold")
        if self.outage_cycles < 0 or self.reorder_max_delay < 0:
            raise ValueError("outage_cycles/reorder_max_delay must be >= 0")
        if self.reorder_rate > 0.0 and self.reorder_max_delay < 1:
            # a reordered packet's delay is drawn from [1, max_delay]
            raise ValueError(
                "reorder_max_delay must be >= 1 when reorder_rate > 0, "
                f"got {self.reorder_max_delay}"
            )


@dataclass(frozen=True)
class ArchConfig:
    """Complete machine description.

    ``scale`` shrinks the amount of simulated work: workload generators
    multiply their reference counts by it and the checkpoint scheduler
    multiplies its period by it, so "recovery points per unit of work"
    is invariant.  This is the repro=2 substitution documented in
    DESIGN.md section 3.
    """

    n_nodes: int = 16
    clock_hz: int = 20_000_000
    cache: CacheConfig = field(default_factory=CacheConfig)
    am: AMConfig = field(default_factory=AMConfig)
    latency: LatencyConfig = field(default_factory=LatencyConfig)
    ft: FaultToleranceConfig = field(default_factory=FaultToleranceConfig)
    transport: TransportConfig = field(default_factory=TransportConfig)
    scale: float = 1.0
    #: Random seed threaded through workload generators and victim picks.
    seed: int = 2026

    def __post_init__(self) -> None:
        self.cache.validate()
        self.am.validate()
        self.transport.validate()
        mesh_dimensions(self.n_nodes)  # raises on degenerate meshes
        if self.scale <= 0:
            raise ValueError("scale must be positive")

    # -- geometry -----------------------------------------------------

    @property
    def mesh_shape(self) -> tuple[int, int]:
        return mesh_dimensions(self.n_nodes)

    # -- addressing ---------------------------------------------------

    @property
    def item_bytes(self) -> int:
        return self.am.item_bytes

    @property
    def page_bytes(self) -> int:
        return self.am.page_bytes

    @property
    def items_per_page(self) -> int:
        return self.am.items_per_page

    def item_of(self, addr: int) -> int:
        return addr // self.am.item_bytes

    def page_of_item(self, item: int) -> int:
        return item // self.am.items_per_page

    def page_of(self, addr: int) -> int:
        return addr // self.am.page_bytes

    # -- timing -------------------------------------------------------

    @property
    def cycle_seconds(self) -> float:
        return 1.0 / self.clock_hz

    def checkpoint_period_cycles(self) -> int:
        """Recovery-point period in cycles.

        Simulated time is real machine time at the real clock; the
        workload ``scale`` shrinks run length and footprint, not the
        clock, so the period is *not* scaled — recovery data per
        checkpoint and fixed per-checkpoint costs keep their full-scale
        proportions (DESIGN.md section 3).
        """
        if self.ft.checkpoint_period_override is not None:
            return self.ft.checkpoint_period_override
        period = self.clock_hz / (
            self.ft.checkpoint_frequency_hz * self.ft.frequency_compression
        )
        return max(1, int(period))

    def checkpoint_period_references(self, reference_density: float) -> int:
        """Recovery-point period in references per processor.

        At the paper's 20 MHz clock, a frequency of ``f`` points per
        second spans ``clock / f`` instructions, of which
        ``reference_density`` are memory references.
        """
        refs = (
            self.clock_hz
            / (self.ft.checkpoint_frequency_hz * self.ft.frequency_compression)
            * reference_density
        )
        return max(1, int(refs))

    def cycles_to_seconds(self, cycles: int) -> float:
        return cycles * self.cycle_seconds

    # -- convenience --------------------------------------------------

    def with_(self, **kwargs) -> "ArchConfig":
        """Return a copy with top-level fields replaced."""
        return replace(self, **kwargs)

    def with_ft(self, **kwargs) -> "ArchConfig":
        """Return a copy with fault-tolerance fields replaced."""
        return replace(self, ft=replace(self.ft, **kwargs))

    def with_transport(self, **kwargs) -> "ArchConfig":
        """Return a copy with transport fields replaced."""
        return replace(self, transport=replace(self.transport, **kwargs))

    def transfer_cycles(self, hops: int, flits: int) -> int:
        """Uncontended pipelined-wormhole transfer latency."""
        return self.latency.hop * hops + flits

    def remote_fill_cycles(self, hops: int) -> int:
        """Uncontended read-miss latency from a remote AM (Table 2 model)."""
        lat = self.latency
        return (
            lat.local_am_fill
            + lat.req_launch
            + self.transfer_cycles(hops, lat.control_flits)
            + lat.remote_am_service
            + self.transfer_cycles(
                hops, lat.control_flits + lat.item_flits(self.am.item_bytes)
            )
            + lat.fill
        )


#: Recovery-point frequencies swept in Figures 3-7 of the paper.
PAPER_FREQUENCIES_HZ: tuple[float, ...] = (400.0, 100.0, 20.0, 5.0)

#: Node counts swept in the scalability study (Figures 8-11).
PAPER_NODE_COUNTS: tuple[int, ...] = (9, 16, 30, 42, 56)
