"""Unreliable-hardware substrate (paper section 6, future work).

Silent omission faults on designated cores, with significance-driven
protection (execute-and-verify re-execution) for important tasks —
the ERSA-style scenario the paper names as the next step for the
programming model.

The fault machinery composes with the rest of the runtime rather than
forking it: :class:`FaultySimulatedMachine` subclasses the simulated
engine and overrides only how a body executes on a core (so ticks,
DVFS and the shared accounting core work unchanged), the ``"faulty"``
engine spec (that class) drops into any
:class:`~repro.config.RuntimeConfig`, and
:func:`faulty_scheduler` is a convenience front for the common case.
Fault draws are deterministic per (worker, task, attempt) so
unreliable-hardware experiments replay bit-identically.
"""

from .engine import FaultySimulatedMachine, faulty_scheduler
from .model import FaultLog, FaultModel, FaultRecord

__all__ = [
    "FaultModel",
    "FaultRecord",
    "FaultLog",
    "FaultySimulatedMachine",
    "faulty_scheduler",
]
