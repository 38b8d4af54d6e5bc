"""Seeded protocol bugs for validating the verification layer itself.

A checker that has never caught a bug is untrusted.  Each mutation here
monkeypatches one protocol method on a machine instance with a
plausibly-wrong variant — the kind of defect a refactor could really
introduce — and names the invariant code the model checker / fuzzer
must report when it finds the resulting violation.  ``repro verify
--mutate NAME`` and tests/verify/test_model_checker.py drive these.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, TYPE_CHECKING

from repro.memory.states import ItemState

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.machine import Machine

S = ItemState


@dataclass(frozen=True)
class Mutation:
    name: str
    description: str
    #: Invariant codes acceptable as the first detection (a seeded bug
    #: often trips a sibling invariant before the headline one).
    expected_codes: tuple[str, ...]
    apply: Callable[["Machine"], None]
    #: Recovery strategy whose code path the mutation seeds (the model
    #: must be checked with ``ModelConfig(strategy=...)`` to reach it).
    strategy: str = "ecp"
    #: True when only failure events reach the mutated path
    #: (``ModelConfig(failures=True)``).
    requires_failures: bool = False
    #: True when only membership events (joins, leadership handoffs)
    #: reach the mutated path (``ModelConfig(membership=True)``).
    requires_membership: bool = False


def _mut_commit_keeps_inv_ck(machine: "Machine") -> None:
    """Commit promotes the Pre-Commit pair but forgets to discard the
    old recovery point: two recovery points coexist (CK-VS-INV)."""
    protocol = machine.protocol

    def commit_node(node_id):
        node = protocol.nodes[node_id]
        promoted = 0
        for item in node.am.items_in_group("pre_commit"):
            state = node.am.state(item)
            node.am.set_state(
                item,
                S.SHARED_CK1 if state is S.PRE_COMMIT1 else S.SHARED_CK2,
            )
            promoted += 1
        return promoted, 0  # bug: Inv-CK copies never discarded

    protocol.commit_node = commit_node


def _mut_commit_promotes_both_primary(machine: "Machine") -> None:
    """Commit turns *both* pair members into Shared-CK1: duplicate
    primaries / two owner-capable copies (DUP, OWNER)."""
    protocol = machine.protocol

    def commit_node(node_id):
        node = protocol.nodes[node_id]
        promoted = 0
        for item in node.am.items_in_group("pre_commit"):
            node.am.set_state(item, S.SHARED_CK1)  # bug: CK2 becomes CK1
            promoted += 1
        discarded = 0
        for item in node.am.items_in_group("inv_ck"):
            node.am.set_state(item, S.INVALID)
            discarded += 1
        return promoted, discarded

    protocol.commit_node = commit_node


def _mut_sharer_drop_lost(machine: "Machine") -> None:
    """The sharing-list prune message of a silent replacement is lost:
    the directory keeps naming a node that dropped its copy
    (DIR-SHARERS)."""
    machine.protocol.on_shared_copy_dropped = lambda node_id, item, now: None


def _mut_write_skips_inv_ck_degrade(machine: "Machine") -> None:
    """A write miss on a node holding a Shared-CK copy takes ownership
    without degrading the recovery pair to Inv-CK first: a current
    owner coexists with Shared-CK copies (CK-VS-OWNER)."""
    protocol = machine.protocol
    inner = protocol._pre_miss_write

    def _pre_miss_write(node_id, item, state, now):
        if state in (S.SHARED_CK1, S.SHARED_CK2):
            return now  # bug: pair left in Shared-CK
        return inner(node_id, item, state, now)

    protocol._pre_miss_write = _pre_miss_write


def _mut_lost_precommit_mark(machine: "Machine") -> None:
    """The create phase's PRECOMMIT_MARK is dropped and never retried
    (a fire-and-forget transport): the owner commits a recovery 'pair'
    whose second member was never promoted (CK-PAIR, DIR-PARTNER)."""
    from repro.network.message import MessageKind
    from repro.network.topology import Subnet

    protocol = machine.protocol

    def mark_precommit_replica(node_id, item, target, now):
        t = protocol.fabric.control(
            node_id, target, Subnet.REQUEST, now, MessageKind.PRECOMMIT_MARK, item
        )
        entry = protocol.directory.entry(node_id, item)
        entry.sharers.discard(target)
        entry.partner = target
        return t  # bug: the mark was lost; no retry, no promotion

    protocol.mark_precommit_replica = mark_precommit_replica


def _mut_commit_skips_one_node(machine: "Machine") -> None:
    """Node 1's COMMIT is lost and never retried: a recovery point
    committed on every node but one (PRE-COMMIT and pair breakage)."""
    protocol = machine.protocol
    inner = protocol.commit_node

    def commit_node(node_id):
        if node_id == 1:
            return 0, 0  # bug: the commit never reached node 1
        return inner(node_id)

    protocol.commit_node = commit_node


def _mut_dup_inject_reinstalls(machine: "Machine") -> None:
    """The INJECT_DATA handler lost its duplicate guard: a
    retransmitted injection re-runs the install path, which for a
    Shared copy prunes the sharing list the node is still on
    (EXACTLY-ONCE; needs ``ModelConfig(duplicates=True)``)."""
    protocol = machine.protocol
    injector = protocol.injector
    inner = injector._install

    def _install(node_id, item, state, now):
        node = protocol.nodes[node_id]
        if node.am.has_page(node.am.page_of(item)) and node.am.state(item) is state:
            # bug: no already-installed check — the duplicate is treated
            # as a stale replaceable copy being overwritten
            if state is S.SHARED:
                protocol.on_shared_copy_dropped(node_id, item, now)
            node.am.set_state(item, state)
            return
        inner(node_id, item, state, now)

    injector._install = _install


def _mut_pooled_restore_unpublished(machine: "Machine") -> None:
    """The pooled restore installs each item's copy but loses the
    pointer republish: serving copies exist that no localization
    pointer names (DIR-POINTER; pooled strategy, failure path)."""
    machine.recovery._publish = lambda item, target: None


def _mut_recompute_restore_shared(machine: "Machine") -> None:
    """The recompute restore re-materializes items as plain Shared
    instead of Exclusive: the republished pointer names a copy that
    cannot serve ownership (DIR-POINTER; recompute strategy, failure
    path)."""
    machine.recovery.restore_state = S.SHARED


def _mut_join_wipes_pointer_partition(machine: "Machine") -> None:
    """The joining node initializes its pointer partition to empty
    instead of reclaiming the entries accumulated while it was
    unjoined: every copy of a joiner-homed item loses its localization
    pointer (DIR-POINTER; membership path)."""
    recovery = machine.recovery
    inner = recovery.join_node

    def join_node(node_id):
        yield from inner(node_id)
        # bug: "fresh node, fresh partition" — the home's directory
        # entries were live the whole time
        machine.directory._pointers[node_id].clear()

    recovery.join_node = join_node


def _mut_handoff_claims_serving_copies(machine: "Machine") -> None:
    """The incoming checkpoint leader 're-registers' its copies on
    handoff, repointing localization pointers at its plain Shared
    replicas: the pointer names a copy that cannot serve ownership
    (DIR-POINTER; membership path)."""
    recovery = machine.recovery
    inner = recovery.handoff_cycles

    def handoff_cycles(kind):
        # the model hands leadership to the next node in issue order
        new_leader = next(
            (n.node_id for n in machine.nodes[1:] if n.alive), None
        )
        if new_leader is not None:
            node = machine.nodes[new_leader]
            for item, state in list(node.am.non_invalid_items()):
                if state is S.SHARED:
                    machine.directory.set_serving_node(item, new_leader)
        return inner(kind)

    recovery.handoff_cycles = handoff_cycles


def _mut_home_timeout_ignored(machine: "Machine") -> None:
    """Regression guard for a real bug: a cold miss on an item whose
    home node died (pointer partition wiped, not yet rehosted) used to
    mint a second Exclusive owner instead of timing out (OWNER)."""
    machine.protocol._check_home_reachable = lambda item: None


MUTATIONS: dict[str, Mutation] = {
    m.name: m
    for m in (
        Mutation(
            "commit-keeps-inv-ck",
            "commit forgets to discard the old recovery point",
            ("CK-VS-INV",),
            _mut_commit_keeps_inv_ck,
        ),
        Mutation(
            "commit-promotes-both-primary",
            "commit promotes Pre-Commit2 to Shared-CK1",
            ("DUP", "OWNER"),
            _mut_commit_promotes_both_primary,
        ),
        Mutation(
            "sharer-drop-lost",
            "replacement never prunes the sharing list",
            ("DIR-SHARERS",),
            _mut_sharer_drop_lost,
        ),
        Mutation(
            "write-skips-inv-ck-degrade",
            "write takes ownership without degrading Shared-CK to Inv-CK",
            ("CK-VS-OWNER", "INV-PAIR"),
            _mut_write_skips_inv_ck_degrade,
        ),
        Mutation(
            "lost-precommit-mark",
            "PRECOMMIT_MARK dropped without retry: pair never promoted",
            ("CK-PAIR", "DIR-PARTNER"),
            _mut_lost_precommit_mark,
        ),
        Mutation(
            "commit-skips-one-node",
            "COMMIT lost to one node without retry: partial recovery point",
            ("PRE-COMMIT", "CK-PAIR", "CK-VS-INV", "DUP"),
            _mut_commit_skips_one_node,
        ),
        Mutation(
            "dup-inject-reinstalls",
            "duplicate INJECT_DATA re-runs the install path",
            ("EXACTLY-ONCE", "DIR-SHARERS"),
            _mut_dup_inject_reinstalls,
        ),
        Mutation(
            "home-timeout-ignored",
            "cold miss trusts a wiped pointer partition (dead home node)",
            ("OWNER", "DUP", "CK-VS-OWNER"),
            _mut_home_timeout_ignored,
        ),
        Mutation(
            "join-wipes-pointer-partition",
            "join clears its pointer partition instead of reclaiming it",
            ("DIR-POINTER",),
            _mut_join_wipes_pointer_partition,
            requires_membership=True,
        ),
        Mutation(
            "handoff-claims-serving-copies",
            "incoming leader repoints items at its plain Shared copies",
            ("DIR-POINTER",),
            _mut_handoff_claims_serving_copies,
            requires_membership=True,
        ),
        Mutation(
            "pooled-restore-unpublished",
            "pool restore never republishes the localization pointer",
            ("DIR-POINTER",),
            _mut_pooled_restore_unpublished,
            strategy="pooled",
            requires_failures=True,
        ),
        Mutation(
            "recompute-restore-shared",
            "recompute re-materializes items as Shared, not Exclusive",
            ("DIR-POINTER",),
            _mut_recompute_restore_shared,
            strategy="recompute",
            requires_failures=True,
        ),
    )
}
