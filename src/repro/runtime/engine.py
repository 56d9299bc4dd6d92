"""Execution engines: how tasks actually run.

One scheduler, interchangeable execution backends (DESIGN.md section 5),
all subclasses of :class:`Engine`:

* :class:`SimulatedEngine` — the default.  N virtual cores under a
  deterministic discrete-event clock.  Task bodies really execute (so
  results and quality metrics are genuine); durations come from the cost
  model; energy from the machine power model.  This engine reproduces
  the paper's 16-core testbed on any host.
* :class:`ThreadedEngine` — real ``threading`` workers sharing the same
  queue fabric and policies.  Useful when task bodies release the GIL
  (NumPy); timing is host wall-clock and therefore noisy.  The energy
  report applies the machine power model to *measured* busy intervals —
  an estimate, clearly labelled as such.
* :class:`~repro.runtime.process_engine.ProcessPoolEngine`
  (spec ``"process"``) — task bodies execute in a
  ``concurrent.futures`` process pool, giving NumPy-heavy kernels real
  parallelism; results and mutated ``out()`` arrays are marshalled back
  into the master's dependence-release path.
* ``sequential`` — a :class:`SimulatedEngine` with one worker; the
  reference semantics for debugging.
* ``faulty`` (:mod:`repro.faults`) — a fault-injecting
  :class:`SimulatedEngine` for the unreliable-hardware scenario.

Engines expose a deliberately narrow interface: ``enqueue``/
``enqueue_many`` ready tasks, ``master_charge`` bookkeeping work,
``run_until`` a barrier predicate holds, ``finish`` the run.  Every
engine distributes tasks through one :class:`~repro.runtime.queues
.WorkerQueues` fabric and records every observation in one shared
:class:`~repro.runtime.accounting.AccountingCore` per run (DESIGN.md
section 6), which is what keeps report schemas identical across
backends.
"""

from __future__ import annotations

import abc
import threading
import time as _time
from typing import TYPE_CHECKING, Callable

from ..registry import register
from ..sim.clock import VirtualClock
from ..sim.events import EventQueue
from ..sim.trace import ExecutionTrace, Segment
from .accounting import AccountingCore, AccountingShard
from .errors import SchedulerError
from .queues import QueueStats, WorkerQueues
from .task import ExecutionKind, Task, TaskState

if TYPE_CHECKING:  # pragma: no cover
    from ..energy.cost import CostModel
    from ..energy.machine_model import MachineModel
    from ..runtime.policies.base import Policy

__all__ = [
    "Engine",
    "SimulatedEngine",
    "WallClockEngine",
    "ThreadedEngine",
    "sequential_engine",
]


class Engine(abc.ABC):
    """The contract between the scheduler and an execution backend.

    The constructor takes the standard engine wiring (the registry
    factories all receive it), checks the worker count against the
    machine, and builds the run's :class:`WorkerQueues` fabric and
    :class:`AccountingCore`; ``n_workers``, ``queue_stats`` and
    ``trace`` read from those two.  Subclasses provide admission,
    master bookkeeping, ticks, barriers and shutdown, and keep
    ``master_time`` — the master thread's current (virtual or wall)
    time — readable.
    """

    #: Whether :meth:`set_frequency_factor` stretches task durations on
    #: this backend (virtual-time engines) or only changes the billed
    #: power point (wall-clock engines, which cannot retime reality).
    #: The governor uses this to de-scale busy-time observations.
    dvfs_scales_time: bool = False

    master_time: float

    def __init__(
        self,
        n_workers: int,
        machine_model: "MachineModel",
        cost_model: "CostModel",
        policy: "Policy",
        on_task_finished: Callable[[Task, float], None],
        stall_handler: Callable[[], bool] | None = None,
    ) -> None:
        if n_workers > machine_model.n_cores:
            raise SchedulerError(
                f"{n_workers} workers exceed the machine's "
                f"{machine_model.n_cores} cores"
            )
        self.machine_model = machine_model
        self.cost_model = cost_model
        self.policy = policy
        self.on_task_finished = on_task_finished
        self.stall_handler = stall_handler
        self.queues = WorkerQueues(n_workers)
        self.accounting = AccountingCore(n_workers)
        policy.make_worker_state(n_workers)

    @abc.abstractmethod
    def enqueue(self, task: Task, at: float | None = None) -> None:
        """Accept one dependence-free task for execution."""

    @abc.abstractmethod
    def enqueue_many(
        self, tasks: list[Task], at: float | None = None
    ) -> None:
        """Accept a batch of dependence-free tasks in one call."""

    @abc.abstractmethod
    def master_charge(self, work_units: float) -> None:
        """Account master-side bookkeeping work."""

    # -- online control surface (the governor's actuators) ---------------
    @abc.abstractmethod
    def set_tick(
        self, interval: float, callback: Callable[[float], None]
    ) -> None:
        """Install a periodic ``callback(now)`` on the engine timeline."""

    def set_frequency_factor(
        self, factor: float, at: float | None = None
    ) -> None:
        """Switch the DVFS state from time ``at`` (default: now) onward.

        The base implementation records the epoch in the accounting
        core only — correct for the wall-clock backends (threaded /
        process), where the model cannot retime real execution but the
        energy attribution should bill the downclocked power point.
        The simulated engines additionally stretch future durations.
        """
        if factor <= 0:
            raise SchedulerError(
                f"frequency factor must be > 0: {factor}"
            )
        t = self.master_time if at is None else at
        self.accounting.record_dvfs(t, factor)

    @abc.abstractmethod
    def run_until(
        self, predicate: Callable[[], bool], description: str
    ) -> float:
        """Block until the barrier predicate holds; return the time."""

    @abc.abstractmethod
    def finish(self) -> tuple[ExecutionTrace, float]:
        """Complete all work; return (trace, makespan)."""

    # -- reporting -------------------------------------------------------
    @property
    def n_workers(self) -> int:
        return self.queues.n_workers

    @property
    def queue_stats(self) -> QueueStats:
        return self.queues.stats

    @property
    def trace(self) -> ExecutionTrace:
        return self.accounting.trace


@register("engine", "simulated", "sim")
class SimulatedEngine(Engine):
    """Event-driven execution of the task stream on N virtual cores.

    This is the substitution for the paper's 16-core Xeon testbed
    (DESIGN.md section 2).  The *runtime logic* — per-worker queues,
    round-robin issue, work stealing, policy decisions, dependence
    release — is the production code from :mod:`repro.runtime`; only
    the passage of time is virtual:

    * the **master** timeline advances as the program spawns tasks (task
      creation cost, policy buffering cost, GTB sort cost);
    * **workers** are simulated cores that acquire tasks from the queue
      fabric, execute the *real* Python body (so program outputs and
      quality metrics are genuine), and occupy virtual time according
      to the cost model;
    * a :class:`~repro.sim.events.EventQueue` orders everything
      deterministically.

    Hot-path design (the event loop dominates simulated runs):

    * events carry their operand in the event ``payload`` and a
      two-argument bound-method ``action(payload, now)`` — no per-event
      closure allocation;
    * wake-ups are *coalesced*: only idle workers are woken, at most one
      pending ``tryrun`` event per worker (``_wake_pending``), instead
      of one event per (enqueue × worker);
    * host wall-clock measurement around task bodies is skipped whenever
      the cost model declares it unnecessary
      (:meth:`~repro.energy.cost.CostModel.wants_measurement`).

    Subclasses change how a body runs on a core by overriding
    :meth:`_execute` (the fault-injecting engine does).
    """

    dvfs_scales_time = True

    def __init__(
        self,
        n_workers: int,
        machine_model: "MachineModel",
        cost_model: "CostModel",
        policy: "Policy",
        on_task_finished: Callable[[Task, float], None],
        stall_handler: Callable[[], bool] | None = None,
    ) -> None:
        super().__init__(
            n_workers,
            machine_model,
            cost_model,
            policy,
            on_task_finished,
            stall_handler,
        )
        self.clock = VirtualClock()
        self.events = EventQueue()
        self.busy: list[bool] = [False] * n_workers
        #: The master thread's private timeline (spawning, buffering).
        self.master_time = 0.0
        #: Workers with no task in flight (wake candidates on enqueue).
        self._idle: set[int] = set(range(n_workers))
        #: Per-worker "a tryrun event is already queued" latch.
        self._wake_pending: list[bool] = [False] * n_workers

        # Precomputed hot-path constants: work-units -> seconds factor,
        # the policy's decision table (bound methods + constant
        # overheads) and the cost model's measurement requirement.
        self._inv_ops = 1.0 / machine_model.ops_per_second
        self._decide = policy.decide
        self._decide_overhead = policy.decide_overhead
        self._decide_overhead_const = policy.decide_overhead_const
        self._wants_measurement = cost_model.wants_measurement
        #: DVFS baseline: factors always scale the *nominal* model, so
        #: repeated switches never compound.
        self._nominal_model = machine_model
        # Periodic-tick state (the governor's clock): interval, bound
        # callback, and an "an event is queued" latch mirroring
        # _wake_pending's coalescing discipline.
        self._tick_interval = 0.0
        self._tick_cb: Callable[[float], None] | None = None
        self._tick_armed = False

    # -- master-side operations ---------------------------------------
    def master_charge(self, work_units: float) -> None:
        """Advance the master timeline by ``work_units`` of bookkeeping."""
        dt = work_units * self._inv_ops
        self.master_time += dt
        self.accounting.add_master_busy(dt)

    def enqueue(self, task: Task, at: float | None = None) -> None:
        """Schedule a ready task to enter the queue fabric at ``at``.

        Defaults to the master's current time (master-issued tasks);
        dependence-released tasks pass their releaser's finish time.
        """
        t = self.master_time if at is None else at
        self.events.push(t, self._do_enqueue, tag="enqueue", payload=task)
        self._arm_tick(t)

    def enqueue_many(
        self, tasks: list[Task], at: float | None = None
    ) -> None:
        """Batched :meth:`enqueue`: one event admits a whole task batch.

        The batched-spawn fast path funnels here — a single heap push
        and a single wake-up pass replace one event per task, which is
        the dominant per-spawn cost on fine-grained streams.
        """
        t = self.master_time if at is None else at
        self.events.push(
            t, self._do_enqueue_many, tag="enqueue_many", payload=tasks
        )
        self._arm_tick(t)

    # -- periodic ticks and DVFS (the governor's actuation surface) -----
    def set_tick(
        self, interval: float, callback: Callable[[float], None]
    ) -> None:
        """Install a periodic callback on the virtual timeline.

        ``callback(now)`` fires every ``interval`` virtual seconds while
        the machine has pending events; it re-arms lazily from the next
        enqueue when the event queue drains, so ticks never keep an
        otherwise-finished simulation alive (and never mask a genuine
        stall from :meth:`run_until`).
        """
        if interval <= 0:
            raise SchedulerError(
                f"tick interval must be > 0, got {interval}"
            )
        self._tick_interval = interval
        self._tick_cb = callback
        self._arm_tick(self.master_time)

    def _arm_tick(self, now: float) -> None:
        if self._tick_cb is not None and not self._tick_armed:
            self._tick_armed = True
            self.events.push(
                now + self._tick_interval,
                self._fire_tick,
                tag="tick",
                payload=None,
            )

    def _fire_tick(self, _payload, now: float) -> None:
        self._tick_armed = False
        cb = self._tick_cb
        if cb is not None:
            cb(now)
        # Re-arm only while real work remains queued: a tick must never
        # be the event that keeps the queue non-empty.
        if self.events:
            self._arm_tick(now)

    def set_frequency_factor(
        self, factor: float, at: float | None = None
    ) -> None:
        """Online DVFS: run at ``factor`` × nominal frequency from ``at``.

        Records the DVFS epoch (so energy integration bills the new
        power point) and swaps the active machine model for the nominal
        model rescaled by ``factor`` (throughput ~f, dynamic power ~f^3
        — see :meth:`~repro.energy.machine_model.MachineModel
        .scaled_frequency`), so subsequent task durations and master
        charges stretch accordingly.  Tasks already in flight keep their
        committed durations (frequency transitions do not retime issued
        work, as on real hardware with in-flight instructions).
        """
        super().set_frequency_factor(
            factor,
            max(self.clock.now, self.master_time) if at is None else at,
        )
        model = (
            self._nominal_model
            if factor == 1.0
            else self._nominal_model.scaled_frequency(factor)
        )
        self.machine_model = model
        self._inv_ops = 1.0 / model.ops_per_second

    def _wake_idle(self, now: float) -> None:
        # Wake idle workers (owner or thief — acquire() resolves which),
        # coalescing to at most one pending tryrun event per worker.
        # Busy workers need no event: they re-poll when they finish.
        if self._idle:
            pending = self._wake_pending
            push = self.events.push
            for w in self._idle:
                if not pending[w]:
                    pending[w] = True
                    push(now, self._try_run, tag="tryrun", payload=w)

    def _do_enqueue(self, task: Task, now: float) -> None:
        task.t_issued = now
        self.queues.push(task)
        self._wake_idle(now)

    def _do_enqueue_many(self, tasks: list[Task], now: float) -> None:
        push = self.queues.push
        for task in tasks:
            task.t_issued = now
            push(task)
        self._wake_idle(now)

    # -- worker-side operations ------------------------------------------
    def _try_run(self, worker: int, now: float) -> None:
        self._wake_pending[worker] = False
        if self.busy[worker]:
            return
        task = self.queues.acquire(worker)
        if task is None:
            return
        self._start_task(worker, task, now)

    def _start_task(self, worker: int, task: Task, now: float) -> None:
        kind = self._decide(task, worker)
        overhead = self._decide_overhead_const
        if overhead is None:
            overhead = self._decide_overhead(task)

        task.state = TaskState.RUNNING
        task.worker = worker
        task.t_started = now

        duration = (
            self._execute(worker, task, kind, now)
            + overhead * self._inv_ops
        )
        self.busy[worker] = True
        self._idle.discard(worker)
        self.events.push(
            now + duration, self._finish_task, tag="finish", payload=task
        )

    def _execute(
        self, worker: int, task: Task, kind: ExecutionKind, now: float
    ) -> float:
        """Run ``task``'s body as ``kind`` on ``worker`` at ``now``;
        return the virtual seconds it occupies the core (excluding the
        policy's decision overhead)."""
        if self._wants_measurement(task):
            host_t0 = _time.perf_counter()
            task.execute(kind)
            host_dt = _time.perf_counter() - host_t0
            self.accounting.add_host_seconds(host_dt)
        else:
            task.execute(kind)
            host_dt = None
        return self.cost_model.duration(
            task, kind, self.machine_model, measured_wall=host_dt
        )

    def _finish_task(self, task: Task, now: float) -> None:
        worker = task.worker
        self.busy[worker] = False
        self._idle.add(worker)
        task.state = TaskState.FINISHED
        task.t_finished = now
        assert task.decision is not None
        self.accounting.record_task(
            task, worker, task.t_started, now, task.decision
        )
        # Group bookkeeping + dependence release (may enqueue successors
        # at `now`; their events sort after this one).
        self.on_task_finished(task, now)
        if not self._wake_pending[worker]:
            self._wake_pending[worker] = True
            self.events.push(now, self._try_run, tag="tryrun", payload=worker)

    # -- event loop --------------------------------------------------------
    def run_until(
        self, predicate: Callable[[], bool], description: str = "barrier"
    ) -> float:
        """Pump events in time order until ``predicate()`` holds.

        Stops at the first instant the condition is satisfied (leaving
        unrelated future events queued, so other task groups keep
        running "in the background" of subsequent program phases).  If
        the event queue drains with the condition unsatisfied, the
        stall handler gets one chance to produce work (e.g. flushing GTB
        buffers); a second stall is a genuine deadlock.
        """
        stalled_once = False
        events = self.events
        pop = events.pop
        advance = self.clock.advance_unchecked
        while not predicate():
            if not events:
                if not stalled_once and self.stall_handler is not None:
                    stalled_once = True
                    if self.stall_handler():
                        continue
                raise SchedulerError(
                    f"simulation stalled waiting for {description}: no "
                    "events left but the wait condition is unsatisfied "
                    "(buffered tasks never flushed, or a dependence "
                    "cycle)"
                )
            ev = pop()
            advance(ev.time)
            ev.action(ev.payload, ev.time)
        return self._block_master()

    def finish(self) -> tuple[ExecutionTrace, float]:
        """Run every remaining event in one batch (the final barrier);
        the makespan covers both the workers and the master."""
        events = self.events
        pop = events.pop
        advance = self.clock.advance_unchecked
        while events:
            ev = pop()
            advance(ev.time)
            ev.action(ev.payload, ev.time)
        self._block_master()
        return self.trace, max(self.trace.makespan, self.master_time)

    def _block_master(self) -> float:
        # The master was blocked at the barrier until this instant.
        now = self.clock.now
        if now > self.master_time:
            self.master_time = now
        return now


class WallClockEngine(Engine):
    """Shared base of the engines that run bodies in real time.

    Timestamps are host wall-clock seconds relative to engine
    construction, so the resulting trace can be fed to the same energy
    model (as an *estimate*; see module docstring).  Master bookkeeping
    costs real time here; :meth:`master_charge` only records the
    model-equivalent for reporting symmetry.

    Governor ticks fire from the barrier wait loops, the master's
    blocking point on these backends.  Missed deadlines are *skipped*,
    not replayed: after an idle stretch (e.g. a long spawn phase
    between barriers) the next check fires exactly one catch-up tick
    and fast-forwards the deadline — a burst of zero-width ticks would
    bloat the governor history and stall barrier entry for nothing.
    """

    _tick_interval = 0.0
    _tick_cb: Callable[[float], None] | None = None
    _tick_next = float("inf")

    def __init__(
        self,
        n_workers: int,
        machine_model: "MachineModel",
        cost_model: "CostModel",
        policy: "Policy",
        on_task_finished: Callable[[Task, float], None],
        stall_handler: Callable[[], bool] | None = None,
    ) -> None:
        super().__init__(
            n_workers,
            machine_model,
            cost_model,
            policy,
            on_task_finished,
            stall_handler,
        )
        self._t0 = _time.perf_counter()

    def _now(self) -> float:
        return _time.perf_counter() - self._t0

    @property
    def master_time(self) -> float:
        return self._now()

    def master_charge(self, work_units: float) -> None:
        self.accounting.add_master_busy(
            self.machine_model.duration_of(work_units)
        )

    def set_tick(
        self, interval: float, callback: Callable[[float], None]
    ) -> None:
        """Periodic callback in wall seconds, fired from the barrier
        wait loop."""
        if interval <= 0:
            raise SchedulerError(
                f"tick interval must be > 0, got {interval}"
            )
        self._tick_interval = interval
        self._tick_cb = callback
        self._tick_next = self.master_time + interval

    def _maybe_tick(self, now: float) -> None:
        """Fire one due tick; callers hold whatever lock serializes
        their accounting (re-entrant callbacks are safe there)."""
        cb = self._tick_cb
        if cb is None or now < self._tick_next:
            return
        self._tick_next = now + self._tick_interval
        cb(now)

    def _tick_clamped_wait(self, timeout: float, now: float) -> float:
        """Shrink a blocking wait so a tick deadline is not slept
        through (the governor needs sub-poll-quantum resolution)."""
        if self._tick_cb is None:
            return timeout
        return min(timeout, max(self._tick_next - now, 0.0))


@register("engine", "threaded", "threads")
class ThreadedEngine(WallClockEngine):
    """Real-thread engine sharing the queue fabric and policies.

    The scheduling hot path is lock-free (DESIGN.md section 12): worker
    threads pop from the :class:`WorkerQueues` deques and buffer
    finished-task observations in per-worker :class:`AccountingShard`
    deltas without touching the engine lock; the lock is taken only for
    the completion handshake (dependence release, in-flight accounting)
    and when a worker runs dry and must park on the condition variable.
    The master merges the shards into the shared trace at barrier
    points, so every aggregate view still reads one serialized
    :class:`AccountingCore`.
    """

    _IDLE_WAIT_S = 0.05

    def __init__(
        self,
        n_workers: int,
        machine_model: "MachineModel",
        cost_model: "CostModel",
        policy: "Policy",
        on_task_finished: Callable[[Task, float], None],
        stall_handler: Callable[[], bool] | None = None,
    ) -> None:
        super().__init__(
            n_workers,
            machine_model,
            cost_model,
            policy,
            on_task_finished,
            stall_handler,
        )
        # RLock: on_task_finished (held) may release successors, which
        # re-enters enqueue() on the same lock.
        self._lock = threading.RLock()
        self._work_cv = threading.Condition(self._lock)
        self._done_cv = threading.Condition(self._lock)
        self._stop = False
        self._inflight = 0
        self._threads = [
            threading.Thread(
                target=self._worker_loop, args=(w,), daemon=True
            )
            for w in range(n_workers)
        ]
        for t in self._threads:
            t.start()

    # -- master side -----------------------------------------------------
    def enqueue(self, task: Task, at: float | None = None) -> None:
        with self._work_cv:
            task.t_issued = self._now()
            self.queues.push(task)
            self._inflight += 1
            self._work_cv.notify_all()

    def enqueue_many(
        self, tasks: list[Task], at: float | None = None
    ) -> None:
        # Batched admission: one lock acquisition and one wake-up for
        # the whole batch (the spawn_many fast path).
        with self._work_cv:
            now = self._now()
            push = self.queues.push
            for task in tasks:
                task.t_issued = now
                push(task)
            self._inflight += len(tasks)
            self._work_cv.notify_all()

    # -- worker side ----------------------------------------------------
    def _worker_loop(self, worker: int) -> None:
        shard = self.accounting.shard(worker)
        acquire = self.queues.acquire
        while True:
            # Fast path: pop/steal straight off the per-worker deques —
            # no lock while work is plentiful.
            task = acquire(worker)
            if task is None:
                # Slow path: park on the condition variable.  Re-check
                # under the lock first — a push between the lock-free
                # miss and the wait would otherwise be slept through.
                with self._work_cv:
                    task = acquire(worker)
                    while task is None:
                        if self._stop:
                            return
                        self._work_cv.wait(self._IDLE_WAIT_S)
                        task = acquire(worker)
            self._run_one(worker, task, shard)

    def _run_one(
        self, worker: int, task: Task, shard: AccountingShard
    ) -> None:
        kind = self.policy.decide(task, worker)
        task.state = TaskState.RUNNING
        task.worker = worker
        start = self._now()
        task.t_started = start
        task.execute(kind)
        end = self._now()
        # Trace bookkeeping goes to the worker's own shard, lock-free;
        # it is buffered *before* the in-flight decrement below, so a
        # barrier that observes quiescence always finds the segment at
        # its merge point.
        shard.record(
            Segment(worker, start, end, task.tid, kind, task.group),
            end - start,
        )
        with self._lock:
            task.state = TaskState.FINISHED
            task.t_finished = end
            self.on_task_finished(task, end)
            self._inflight -= 1
            self._done_cv.notify_all()

    # -- barriers ---------------------------------------------------------
    def run_until(
        self, predicate: Callable[[], bool], description: str
    ) -> float:
        stalled_once = False
        with self._done_cv:
            while True:
                # Fold the workers' buffered deltas into the shared
                # trace before any tick callback (the governor samples
                # the trace) and before stall diagnosis.  The tick check
                # runs at barrier entry too: if every task finished
                # before the barrier, the due tick still fires.
                self.accounting.merge_shards()
                self._maybe_tick(self._now())
                if predicate():
                    break
                if self._inflight == 0 and self.queues.is_empty():
                    if not stalled_once and self.stall_handler is not None:
                        stalled_once = True
                        # Stall handler may spawn/flush, which re-enters
                        # enqueue -> needs the lock we hold; release it.
                        self._done_cv.release()
                        try:
                            produced = self.stall_handler()
                        finally:
                            self._done_cv.acquire()
                        if produced:
                            continue
                    raise SchedulerError(
                        f"threaded engine stalled at {description}"
                    )
                self._done_cv.wait(
                    self._tick_clamped_wait(self._IDLE_WAIT_S, self._now())
                )
            self.accounting.merge_shards()
        return self._now()

    def finish(self) -> tuple[ExecutionTrace, float]:
        self.run_until(
            lambda: self._inflight == 0 and self.queues.is_empty(),
            "engine shutdown",
        )
        with self._work_cv:
            self._stop = True
            self._work_cv.notify_all()
        for t in self._threads:
            t.join(timeout=5.0)
        # Workers are parked/joined: one final merge catches segments
        # buffered after the last barrier's merge point.
        self.accounting.merge_shards()
        return self.trace, max(self.trace.makespan, self._now())


@register("engine", "sequential", "serial")
def sequential_engine(
    n_workers: int,
    machine_model: "MachineModel",
    cost_model: "CostModel",
    policy: "Policy",
    on_task_finished: Callable[[Task, float], None],
    stall_handler: Callable[[], bool] | None = None,
) -> SimulatedEngine:
    """Reference semantics: a one-worker :class:`SimulatedEngine`."""
    return SimulatedEngine(
        1, machine_model, cost_model, policy, on_task_finished, stall_handler
    )
