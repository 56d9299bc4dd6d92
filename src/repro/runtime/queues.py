"""Per-worker task queues with round-robin distribution and work stealing.

The paper (section 3): "Our runtime system is organized as a master/slave
work-sharing scheduler. ... For every task call encountered, the task is
enqueued in a per-worker task queue.  Tasks are distributed across workers
in round-robin fashion.  Workers select the oldest tasks from their queues
for execution.  When a worker's queue runs empty, the worker may steal
tasks from other worker's queues."

:class:`WorkerQueues` implements exactly that discipline:

* ``push(task)`` places a ready task on the next queue in round-robin
  order (or on an explicitly chosen queue);
* ``pop_local(w)`` removes the *oldest* task of worker ``w`` (FIFO);
* ``steal(w)`` scans the other workers starting after ``w`` and removes
  the oldest task from the first non-empty victim queue.

The simulated engine drives it under virtual time on one thread; the
threaded engine's workers consume from it concurrently *without* the
engine lock (DESIGN.md section 12), and the process engine's master
fills pool slots from it.  One design serves all three:

* the per-worker deques are the synchronization points —
  ``deque.append`` and ``deque.popleft`` are atomic under the GIL, so a
  push and a concurrent pop never corrupt a queue.  Pops and steals test
  ``if q:`` first (a cheap miss, no exception on the single-threaded
  simulated engine) and still guard ``popleft`` against ``IndexError``,
  the race-free emptiness test when a thief empties the deque between
  the check and the pop;
* every mutable counter has a single writer: ``pushed`` belongs to the
  master (pushes are serialized by the engine), and the pop/steal/
  executed counters are per-worker slots written only by that worker;
* there is no materialized size — ``len`` sums the deque lengths (each
  read atomic), exact when quiescent, which is when barrier predicates
  read it; ``is_empty`` stops at the first non-empty deque.

``stats`` assembles a fresh :class:`QueueStats` snapshot from the
counters; it is exact once workers are quiescent (barriers,
``finish``), approximate mid-run on the wall-clock engines.

Invariants (exercised by ``tests/runtime/test_queues.py``):

* ``len(fabric)`` equals the sum of all per-worker depths at all times;
* every task leaves by exactly one of ``pop_local``/``steal``/``drain``;
* ``stats.pushed == stats.popped_local + stats.steals + len(fabric) +
  len(drained)`` over any operation sequence.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .errors import SchedulerError
from .task import Task, TaskState

__all__ = ["WorkerQueues", "QueueStats"]


@dataclass
class QueueStats:
    """Counters for queue traffic, reported per experiment run."""

    pushed: int = 0
    popped_local: int = 0
    steals: int = 0
    failed_steals: int = 0
    #: Per-worker number of tasks executed (occupancy balance).
    executed_per_worker: list[int] = field(default_factory=list)


class WorkerQueues:
    """The work-sharing queue fabric shared by all execution engines."""

    __slots__ = (
        "n_workers",
        "_queues",
        "_rr_next",
        "_pushed",
        "_popped_local",
        "_steals",
        "_failed_steals",
        "_executed",
    )

    def __init__(self, n_workers: int) -> None:
        if n_workers < 1:
            raise SchedulerError(
                f"need at least one worker, got {n_workers}"
            )
        self.n_workers = n_workers
        self._queues: list[deque[Task]] = [
            deque() for _ in range(n_workers)
        ]
        self._rr_next = 0
        self._pushed = 0
        self._popped_local = [0] * n_workers
        self._steals = [0] * n_workers
        self._failed_steals = [0] * n_workers
        self._executed = [0] * n_workers

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return sum(len(q) for q in self._queues)

    def depth(self, worker: int) -> int:
        return len(self._queues[worker])

    def is_empty(self) -> bool:
        return not any(self._queues)

    # -- master side (serialized by the engine) ------------------------
    def push(self, task: Task, worker: int | None = None) -> int:
        """Issue a ready task to a worker queue; returns the worker id."""
        if worker is None:
            w = self._rr_next
            nxt = w + 1
            self._rr_next = nxt if nxt < self.n_workers else 0
        else:
            w = worker
            if not 0 <= w < self.n_workers:
                raise SchedulerError(f"worker {w} out of range")
        task.state = TaskState.QUEUED
        self._queues[w].append(task)
        self._pushed += 1
        return w

    # -- worker side (lock-free) ---------------------------------------
    def pop_local(self, worker: int) -> Task | None:
        """Oldest task from the worker's own queue (FIFO), or None."""
        q = self._queues[worker]
        if not q:
            return None
        try:
            task = q.popleft()
        except IndexError:
            return None
        self._popped_local[worker] += 1
        return task

    def steal(self, thief: int) -> Task | None:
        """Steal the oldest task from the first non-empty victim queue.

        Victims are scanned round-robin starting after the thief, so steal
        pressure spreads instead of hammering worker 0.
        """
        queues = self._queues
        n = self.n_workers
        for off in range(1, n):
            victim = thief + off
            if victim >= n:
                victim -= n
            q = queues[victim]
            if q:
                try:
                    task = q.popleft()
                except IndexError:
                    continue
                self._steals[thief] += 1
                return task
        self._failed_steals[thief] += 1
        return None

    def acquire(self, worker: int) -> Task | None:
        """Local pop falling back to stealing — one scheduling step."""
        task = self.pop_local(worker)
        if task is None:
            task = self.steal(worker)
        if task is not None:
            self._executed[worker] += 1
        return task

    # ------------------------------------------------------------------
    @property
    def stats(self) -> QueueStats:
        """A :class:`QueueStats` snapshot of the per-worker counters."""
        return QueueStats(
            pushed=self._pushed,
            popped_local=sum(self._popped_local),
            steals=sum(self._steals),
            failed_steals=sum(self._failed_steals),
            executed_per_worker=list(self._executed),
        )

    def drain(self) -> list[Task]:
        """Remove and return every queued task (master side, workers
        stopped; used on shutdown/reset)."""
        out: list[Task] = []
        for q in self._queues:
            out.extend(q)
            q.clear()
        return out
