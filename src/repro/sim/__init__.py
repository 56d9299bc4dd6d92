"""Discrete-event substrate of the simulated machine (testbed substitute).

Virtual clock, event queue, topology and trace; the simulated engine
that drives them is :class:`repro.runtime.engine.SimulatedEngine`.
"""

from .clock import VirtualClock
from .events import Event, EventQueue
from .topology import Topology
from .trace import ExecutionTrace, Segment

__all__ = [
    "VirtualClock",
    "Event",
    "EventQueue",
    "Topology",
    "ExecutionTrace",
    "Segment",
]
