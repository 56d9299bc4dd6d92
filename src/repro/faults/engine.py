"""Fault-aware execution: significance-based protection on unreliable cores.

This realizes the paper's future-work scenario (section 6) on top of the
simulated machine: task executions on unreliable cores may silently
fail; the runtime can *protect* significant tasks the way ERSA protects
critical code — here via execute-and-verify with re-execution, whose
cost is charged to the schedule (a faithful first-order model of running
the task redundantly or on a reliable core).

Protection rule: tasks with ``significance >= protect_threshold`` are
protected (fault detected, task re-executed until clean, each attempt
paying full duration); less-significant tasks run unprotected — a fault
silently omits their effect, exactly the failure class approximate
programs are supposed to absorb.
"""

from __future__ import annotations

import time as _time
from typing import Callable

from ..registry import register, resolve
from ..runtime.engine import SimulatedEngine
from ..runtime.errors import SchedulerError
from ..runtime.task import ExecutionKind, Task
from .model import FaultLog, FaultModel, FaultRecord

__all__ = [
    "FaultySimulatedMachine",
    "faulty_scheduler",
]

#: Give up re-executing after this many faulty attempts (prevents the
#: pathological fault_rate=1.0 configuration from hanging).
MAX_ATTEMPTS = 8


@register("engine", "faulty", "unreliable")
class FaultySimulatedMachine(SimulatedEngine):
    """A simulated engine whose designated cores drop task effects.

    Registered as the ``"faulty"`` engine: the constructor takes the
    standard engine wiring plus scalar knobs that build an ERSA-style
    split machine (:meth:`FaultModel.split_machine`), so the
    unreliable-hardware scenario is a plain engine spec, e.g.
    ``engine="faulty:fault_rate=0.08,protect_threshold=0.7"``.
    """

    def __init__(
        self,
        n_workers: int,
        machine_model,
        cost_model,
        policy,
        on_task_finished: Callable[[Task, float], None],
        stall_handler: Callable[[], bool] | None = None,
        *,
        unreliable_fraction: float = 0.5,
        fault_rate: float = 0.05,
        seed: int = 0,
        protect_threshold: float = 1.0,
    ) -> None:
        super().__init__(
            n_workers,
            machine_model,
            cost_model,
            policy,
            on_task_finished,
            stall_handler,
        )
        self.fault_model = FaultModel.split_machine(
            n_workers, unreliable_fraction, fault_rate, seed
        )
        if not 0.0 <= protect_threshold <= 1.0:
            raise SchedulerError(
                f"protect_threshold must be in [0, 1], got "
                f"{protect_threshold}"
            )
        self.protect_threshold = protect_threshold
        self.fault_log = FaultLog()

    def _execute(
        self, worker: int, task: Task, kind: ExecutionKind, now: float
    ) -> float:
        protected = task.significance >= self.protect_threshold
        attempts = 1
        key = task.group_seq if task.group_seq >= 0 else task.tid
        faulted = self.fault_model.draws_fault(
            worker, key, 0, group=task.group
        )
        if faulted and protected:
            # Detected by the verification harness: re-execute until a
            # clean attempt (bounded), paying for every attempt.
            while (
                attempts < MAX_ATTEMPTS
                and self.fault_model.draws_fault(
                    worker, key, attempts, group=task.group
                )
            ):
                attempts += 1
            attempts += 1  # the final clean attempt
            faulted = False

        host_t0 = _time.perf_counter()
        if faulted:
            # Omission fault: the body never takes effect.
            task.decision = kind
            task.result = None
            self.fault_log.add(
                FaultRecord(
                    task.tid, worker, now, task.significance, False
                )
            )
        else:
            if attempts > 1:
                self.fault_log.add(
                    FaultRecord(
                        task.tid, worker, now, task.significance, True
                    )
                )
            task.execute(kind)
        host_dt = _time.perf_counter() - host_t0
        self.accounting.add_host_seconds(host_dt)

        base = self.cost_model.duration(
            task, kind, self.machine_model, measured_wall=host_dt
        )
        return base * attempts


def faulty_scheduler(
    policy,
    n_workers: int = 16,
    fault_model: FaultModel | None = None,
    protect_threshold: float = 1.0,
    machine=None,
    cost_model=None,
):
    """Convenience constructor: a Scheduler on a fault-injecting machine."""
    from ..energy.cost import HybridCost
    from ..energy.machine_model import XEON_E5_2650
    from ..runtime.scheduler import Scheduler

    policy = resolve("policy", policy)
    machine_model = (
        machine if machine is not None
        else XEON_E5_2650.with_workers(n_workers)
    )
    cm = cost_model if cost_model is not None else HybridCost()

    # Two-phase wiring: the engine needs the scheduler's callbacks, the
    # scheduler needs the engine.  Build the scheduler with a plain
    # engine first, then swap in the faulty engine reusing the same
    # callbacks (the scheduler only ever talks to the Engine interface).
    rt = Scheduler(
        policy=policy,
        n_workers=n_workers,
        machine=machine_model,
        cost_model=cm,
        engine="simulated",
    )
    engine = FaultySimulatedMachine(
        n_workers,
        machine_model,
        cm,
        policy,
        rt._on_task_finished,
        rt._on_stall,
        protect_threshold=protect_threshold,
    )
    engine.fault_model = fault_model or FaultModel()
    rt.engine = engine
    return rt
