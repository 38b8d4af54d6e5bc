"""Reliable-delivery transport over lossy links: pay-for-use identity,
retry/backoff/dedup mechanics, escalation, determinism."""

import random

import pytest

from repro.config import LatencyConfig, TransportConfig
from repro.network.fabric import MeshFabric
from repro.network.message import MessageKind
from repro.network.topology import Mesh, Subnet
from repro.network.transport import (
    DeliveryFate,
    LinkFaultModel,
    ReliableTransport,
)

D = DeliveryFate.DROPPED
U = DeliveryFate.DUPLICATED
OK = DeliveryFate.DELIVERED


def make_transport(cfg=None, seed=0, width=4, height=4):
    fabric = MeshFabric(Mesh(width, height), LatencyConfig())
    return ReliableTransport(fabric, cfg or TransportConfig(),
                             rng=random.Random(seed))


# -- pay-for-use -------------------------------------------------------


def test_zero_rates_are_the_identity():
    """With every fault knob at zero the transport is pass-through:
    identical cycles, no rng draws, no counters."""
    transport = make_transport()
    reference = MeshFabric(Mesh(4, 4), LatencyConfig())
    rng_state = transport.faults.rng.getstate()
    for src, dst, flits in [(0, 5, 32), (5, 0, 8), (3, 12, 36), (7, 7, 4)]:
        got = transport.transfer(src, dst, flits, Subnet.REQUEST, depart=100)
        want = reference.transfer(src, dst, flits, Subnet.REQUEST, depart=100)
        assert got == want
    assert transport.faults.rng.getstate() == rng_state
    stats = transport.stats
    assert stats.transport_retries == 0
    assert stats.transport_timeouts == 0
    assert stats.transport_acks == 0
    assert stats.transport_duplicates_suppressed == 0
    assert not transport.outstanding


def test_transport_knobs_are_inert_at_zero_rates():
    """Timeout/backoff/jitter settings cannot change anything when no
    fault can occur — the knobs only exist on the retry path."""
    a = make_transport(TransportConfig())
    b = make_transport(TransportConfig(timeout_cycles=7, backoff_factor=9.0,
                                       jitter_fraction=0.9,
                                       suspicion_threshold=1))
    for src, dst in [(0, 1), (2, 14), (9, 4)]:
        assert (a.transfer(src, dst, 32, Subnet.REPLY, 0)
                == b.transfer(src, dst, 32, Subnet.REPLY, 0))


def test_local_transfer_bypasses_faults_even_when_forced():
    transport = make_transport()
    transport.faults.force(D)
    assert transport.transfer(3, 3, 32, Subnet.REQUEST, 50) == 50
    assert transport.faults._forced  # fate not consumed by the fast path


# -- retry mechanics ---------------------------------------------------


def test_forced_drop_is_retried_and_charged():
    transport = make_transport()
    clean = make_transport()
    transport.faults.force(D)  # first attempt lost, retry delivered
    got = transport.transfer(0, 1, 32, Subnet.REQUEST, 0)
    want = clean.transfer(0, 1, 32, Subnet.REQUEST, 0)
    assert got == transport.cfg.timeout_cycles + want
    stats = transport.stats
    assert stats.transport_retries == 1
    assert stats.transport_timeouts == 1
    assert stats.transport_retransmitted_flits == 32
    assert stats.transport_acks == 1
    assert transport.faults.drops_injected == 1
    assert not transport.outstanding  # acked and retired


def test_lost_ack_returns_first_arrival():
    """When the message arrives but its ack is lost, the retransmission
    is suppressed by the receiver's sequence check and the *first*
    delivery time is returned — the effect applied exactly once, at the
    time it first reached the destination."""
    transport = make_transport()
    clean = make_transport()
    # attempt 1 delivered, its ack dropped, retransmit delivered, acked
    transport.faults.force(OK, D, OK, OK)
    got = transport.transfer(0, 1, 32, Subnet.REQUEST, 0)
    want = clean.transfer(0, 1, 32, Subnet.REQUEST, 0)
    assert got == want  # not the retry's (later) arrival
    assert transport.stats.transport_duplicates_suppressed == 1
    assert transport.stats.transport_retries == 1


def test_forced_duplicate_is_suppressed():
    transport = make_transport()
    transport.faults.force(U)
    transport.transfer(0, 1, 32, Subnet.REQUEST, 0)
    stats = transport.stats
    assert stats.transport_duplicates_suppressed == 1
    assert stats.transport_retries == 0  # duplication is not a timeout
    assert transport.faults.dups_injected == 1


def test_backoff_grows_exponentially_to_the_cap():
    cfg = TransportConfig(timeout_cycles=400, backoff_factor=2.0,
                          max_backoff_cycles=6_400, jitter_fraction=0.0)
    transport = make_transport(cfg)
    timeouts = [cfg.timeout_cycles]
    for _ in range(6):
        timeouts.append(transport._next_timeout(timeouts[-1]))
    assert timeouts == [400, 800, 1600, 3200, 6400, 6400, 6400]


def test_jitter_never_exceeds_the_cap():
    cfg = TransportConfig(timeout_cycles=400, jitter_fraction=0.5)
    transport = make_transport(cfg, seed=7)
    t = cfg.timeout_cycles
    for _ in range(20):
        t = transport._next_timeout(t)
        assert t <= cfg.max_backoff_cycles


# -- escalation --------------------------------------------------------


def test_consecutive_timeouts_raise_a_suspicion():
    transport = make_transport()
    suspects, storms = [], []
    transport.on_suspect = suspects.append
    transport.on_retry_storm = lambda: storms.append(True)
    transport.faults.force(D, D, D)  # threshold is 3
    transport.transfer(0, 1, 32, Subnet.REQUEST, 0)
    assert suspects == [1]
    assert len(storms) == 1
    assert transport.stats.transport_suspicions == 1
    # a successful ack resets the streak
    assert transport.consecutive_timeouts[1] == 0


def test_suspicion_fires_once_per_streak():
    transport = make_transport()
    suspects = []
    transport.on_suspect = suspects.append
    transport.faults.force(D, D, D, D)  # 4 consecutive timeouts
    transport.transfer(0, 1, 32, Subnet.REQUEST, 0)
    assert suspects == [1]  # threshold crossing, not every timeout


def test_abandonment_surfaces_node_unavailable():
    from repro.coherence.standard import NodeUnavailable

    cfg = TransportConfig(abandon_attempts=3)
    transport = make_transport(cfg)
    transport.faults.force(D, D, D)
    with pytest.raises(NodeUnavailable):
        transport.transfer(0, 1, 32, Subnet.REQUEST, 0, item=9)
    dump_text = "\n".join(transport.dump().lines())
    assert "ABANDONED" in dump_text
    assert "item=9" in dump_text


# -- the link-fault model ---------------------------------------------


def test_outage_drops_everything_until_it_ends():
    faults = LinkFaultModel(TransportConfig(loss_rate=0.0))
    faults.outage_until[(0, 1)] = 1_000
    assert faults.draw(0, 1, at=500)[0] is D
    assert faults.draw(0, 1, at=999)[0] is D
    assert faults.draw(0, 1, at=1_000)[0] is OK  # healed
    assert (0, 1) not in faults.outage_until
    # other paths unaffected during the outage
    faults.outage_until[(0, 1)] = 9_000
    assert faults.draw(2, 3, at=500)[0] is OK


def test_reorder_adds_bounded_delay():
    cfg = TransportConfig(reorder_rate=1.0, reorder_max_delay=16)
    faults = LinkFaultModel(cfg, random.Random(3))
    for _ in range(50):
        fate, delay = faults.draw(0, 1, at=0)
        assert fate is OK
        assert 1 <= delay <= 16
    assert faults.reorders_injected == 50


def test_fault_model_is_seed_deterministic():
    cfg = TransportConfig(loss_rate=0.2, dup_rate=0.1, reorder_rate=0.1)
    a = LinkFaultModel(cfg, random.Random(11))
    b = LinkFaultModel(cfg, random.Random(11))
    fates_a = [a.draw(0, 1, at=i) for i in range(200)]
    fates_b = [b.draw(0, 1, at=i) for i in range(200)]
    assert fates_a == fates_b


def test_lossy_transfers_are_deterministic_end_to_end():
    cfg = TransportConfig(loss_rate=0.3, dup_rate=0.1)
    runs = []
    for _ in range(2):
        transport = make_transport(cfg, seed=5)
        arrivals = [
            transport.transfer(0, 1, 32, Subnet.REQUEST, t * 1_000)
            for t in range(30)
        ]
        runs.append((arrivals, transport.stats.transport_retries,
                     transport.stats.transport_timeouts))
    assert runs[0] == runs[1]
    assert runs[0][1] > 0  # the loss rate actually bit


# -- wrappers and diagnostics -----------------------------------------


def test_control_and_data_ride_the_reliable_path():
    transport = make_transport()
    transport.faults.force(D, OK, OK)  # control: drop, deliver, ack
    transport.control(0, 1, Subnet.REQUEST, 0, kind=MessageKind.READ_REQ)
    assert transport.stats.transport_retries == 1
    transport.faults.force(D, OK, OK)  # data path retries too
    transport.data(0, 2, item_bytes=128, depart=0, kind=MessageKind.DATA_REPLY)
    assert transport.stats.transport_retries == 2


def test_dump_reports_quiet_transport():
    transport = make_transport()
    lines = transport.dump().lines()
    assert lines[0].startswith("transport: consecutive_timeouts=")
    assert "outstanding: none" in lines[1]


# -- machine-level pay-for-use ----------------------------------------


def test_full_run_bit_identical_under_inert_transport_knobs():
    """The acceptance bar for pay-for-use: with every fault rate zero,
    no transport knob can perturb a full checkpointed ECP run — the
    results (per-transaction cycles included) are bit-identical."""
    from repro.machine import Machine
    from repro.orch.serialize import comparable_result_dict
    from repro.workloads.synthetic import UniformShared
    from tests.helpers import small_config

    def run(cfg):
        wl = UniformShared(4, refs_per_proc=800, seed=9)
        return Machine(cfg, wl, protocol="ecp").run()

    base = small_config(4).with_ft(
        checkpoint_period_override=5_000, detection_latency=200
    )
    twisted = base.with_transport(
        timeout_cycles=11, backoff_factor=7.0, max_backoff_cycles=900,
        jitter_fraction=0.9, suspicion_threshold=1, abandon_attempts=2,
    )
    a = comparable_result_dict(run(base))
    b = comparable_result_dict(run(twisted))
    a.pop("config")
    b.pop("config")
    assert a == b


# -- retries stay off the event heap -----------------------------------


def test_machine_retries_schedule_no_events():
    """On a built lossy machine, a transfer that is dropped, retried
    and finally delivered charges its timeouts analytically: the
    engine's pending and dispatched event counts do not move."""
    from repro.machine import Machine
    from repro.workloads.synthetic import UniformShared
    from tests.helpers import small_config

    cfg = small_config(4).with_transport(loss_rate=0.01)
    machine = Machine(cfg, UniformShared(4, refs_per_proc=50, seed=3),
                      protocol="ecp")
    transport = machine.transport
    assert machine.protocol.fabric is transport
    engine = machine.engine
    engine.schedule_at(10_000, lambda: None)
    pending, dispatched = engine.pending_events(), engine.events_dispatched

    # two drops (below the suspicion threshold), then message and ack
    transport.faults.force(D, D, OK, OK)
    clean = make_transport()
    got = transport.transfer(0, 1, 32, Subnet.REQUEST, 0)
    assert got > clean.transfer(0, 1, 32, Subnet.REQUEST, 0)
    assert machine.stats.transport_retries == 2
    assert machine.stats.transport_suspicions == 0
    assert not transport.outstanding
    assert engine.pending_events() == pending
    assert engine.events_dispatched == dispatched
