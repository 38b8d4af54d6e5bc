"""Discrete-event simulation kernel.

A small CSIM-like substrate (the paper builds on the SPAM kernel and the
CSIM library) holding only what the machines use: an event heap with
integer-cycle time, generator-based lightweight processes, condition
events, member barriers (:mod:`repro.sim.sync`) and analytic contention
points.  Everything above it — network, memory system, protocols — is
expressed in terms of these primitives.
"""

from repro.sim.engine import Engine, SimulationError
from repro.sim.process import Process, ProcessState
from repro.sim.sync import EventFlag
from repro.sim.resources import ContentionPoint

__all__ = [
    "Engine",
    "SimulationError",
    "Process",
    "ProcessState",
    "EventFlag",
    "ContentionPoint",
]
