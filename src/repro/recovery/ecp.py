"""The paper's ECP recovery scheme as a :class:`RecoveryStrategy`.

Pure delegation to the original implementations in
``checkpoint/establish.py``, ``checkpoint/recovery.py`` and
``coherence/ecp.py`` — same call order, same cost arithmetic, so a
machine built with ``recovery_strategy="ecp"`` is bit-identical to one
built before the interface existed (the golden digests in
``tests/perf/golden/`` hold).
"""

from __future__ import annotations

from typing import Callable, Generator

from repro.checkpoint.establish import (
    commit_cost_cycles,
    node_create_phase,
    scan_cost_cycles,
)
from repro.checkpoint.recovery import rebuild_metadata, reconfiguration_phase
from repro.recovery.base import RecoveryStrategy


class EcpStrategy(RecoveryStrategy):
    """Error-containing protocol: recovery pairs woven into the AMs."""

    name = "ecp"
    #: A modified item needs up to four copies in *distinct* memories
    #: while a recovery point is established (Exclusive owner + the two
    #: Inv-CK copies of the old point + the new Pre-Commit2 copy —
    #: Section 4.1).
    min_live_nodes = 4

    def node_create_phase(
        self, node_id: int, should_abort: Callable[[], bool] | None = None
    ) -> Generator[int, None, None]:
        return node_create_phase(
            self.machine.protocol,
            self.machine.engine,
            node_id,
            should_abort=should_abort,
        )

    def commit_node(self, node_id: int) -> int:
        protocol = self.machine.protocol
        protocol.commit_node(node_id)
        return commit_cost_cycles(protocol, node_id)

    def abort_node(self, node_id: int) -> None:
        self.machine.protocol.abort_establishment_node(node_id)

    def scan_node(self, node_id: int) -> int:
        protocol = self.machine.protocol
        protocol.recovery_scan_node(node_id)
        return scan_cost_cycles(protocol, node_id)

    def reconfigure(self) -> Generator[int, None, int]:
        protocol = self.machine.protocol
        singletons = rebuild_metadata(protocol)
        return (
            yield from reconfiguration_phase(
                protocol, self.machine.engine, singletons
            )
        )

    def join_node(self, node_id: int) -> Generator[int, None, None]:
        """ECP admission catch-up.

        The joiner's AM is empty, so the committed recovery point needs
        no data movement — every Shared-CK/Inv-CK pair stays exactly
        where it lives.  Catch-up is (1) AM group-set integration: the
        joiner announces itself to every live memory so later injection
        walks and group scans include it, one control round trip per
        member; (2) pointer-partition reclaim from the ring successor.
        """
        machine = self.machine
        cfg = machine.protocol.cfg
        announce = 2 * cfg.transfer_cycles(1, cfg.latency.control_flits)
        for node in machine.nodes:
            if node.alive and node.node_id != node_id:
                yield announce
        cost = self._claim_pointer_partition(node_id)
        if cost:
            yield cost
