"""Unit tests for the work-sharing queue fabric."""

import sys
import threading

import pytest

from repro.runtime.errors import SchedulerError
from repro.runtime.queues import WorkerQueues
from repro.runtime.scheduler import Scheduler
from repro.runtime.task import Task, TaskCost, TaskState


def mk(i=0):
    return Task(fn=lambda: None, args=(i,))


def _double(x):
    return 2 * x


class TestPush:
    def test_round_robin_distribution(self):
        q = WorkerQueues(3)
        workers = [q.push(mk()) for _ in range(6)]
        assert workers == [0, 1, 2, 0, 1, 2]

    def test_explicit_worker(self):
        q = WorkerQueues(3)
        assert q.push(mk(), worker=2) == 2
        assert q.depth(2) == 1

    def test_push_sets_queued_state(self):
        q = WorkerQueues(1)
        t = mk()
        q.push(t)
        assert t.state is TaskState.QUEUED

    def test_invalid_worker_rejected(self):
        q = WorkerQueues(2)
        with pytest.raises(SchedulerError):
            q.push(mk(), worker=5)

    def test_zero_workers_rejected(self):
        with pytest.raises(SchedulerError):
            WorkerQueues(0)


class TestPopAndSteal:
    def test_pop_local_fifo(self):
        q = WorkerQueues(1)
        a, b = mk(1), mk(2)
        q.push(a)
        q.push(b)
        assert q.pop_local(0) is a  # oldest first (paper section 3)
        assert q.pop_local(0) is b

    def test_pop_empty_returns_none(self):
        q = WorkerQueues(2)
        assert q.pop_local(0) is None

    def test_steal_takes_oldest_of_victim(self):
        q = WorkerQueues(2)
        a, b = mk(1), mk(2)
        q.push(a, worker=1)
        q.push(b, worker=1)
        assert q.steal(0) is a

    def test_steal_scans_victims_after_thief(self):
        q = WorkerQueues(4)
        t = mk()
        q.push(t, worker=3)
        # thief 0 scans 1, 2, 3
        assert q.steal(0) is t

    def test_failed_steal_counted(self):
        q = WorkerQueues(2)
        assert q.steal(0) is None
        assert q.stats.failed_steals == 1

    def test_acquire_prefers_local(self):
        q = WorkerQueues(2)
        local, remote = mk(1), mk(2)
        q.push(local, worker=0)
        q.push(remote, worker=1)
        assert q.acquire(0) is local

    def test_acquire_falls_back_to_steal(self):
        q = WorkerQueues(2)
        remote = mk()
        q.push(remote, worker=1)
        assert q.acquire(0) is remote
        assert q.stats.steals == 1

    def test_acquire_updates_execution_stats(self):
        q = WorkerQueues(2)
        q.push(mk(), worker=0)
        q.acquire(0)
        assert q.stats.executed_per_worker[0] == 1

    def test_acquire_local_then_steal(self):
        q = WorkerQueues(2)
        local, remote = mk(1), mk(2)
        q.push(local, worker=0)
        q.push(remote, worker=1)
        assert q.acquire(0) is local
        assert q.acquire(0) is remote
        s = q.stats
        assert s.popped_local == 1 and s.steals == 1
        assert s.executed_per_worker == [2, 0]


class TestBookkeeping:
    def test_len_counts_all_queues(self):
        q = WorkerQueues(3)
        for _ in range(5):
            q.push(mk())
        assert len(q) == 5

    def test_is_empty(self):
        q = WorkerQueues(2)
        assert q.is_empty()
        q.push(mk())
        assert not q.is_empty()

    def test_drain_returns_everything(self):
        q = WorkerQueues(2)
        tasks = [mk(i) for i in range(4)]
        for t in tasks:
            q.push(t)
        out = q.drain()
        assert set(out) == set(tasks)
        assert q.is_empty()

    def test_stats_pushed_counter(self):
        q = WorkerQueues(2)
        for _ in range(3):
            q.push(mk())
        assert q.stats.pushed == 3

    def test_stats_snapshot_conserves_tasks(self):
        q = WorkerQueues(4)
        for i in range(10):
            q.push(mk(i))
        q.pop_local(0)
        q.steal(0)
        drained = q.drain()
        s = q.stats
        assert s.pushed == 10
        assert s.pushed == s.popped_local + s.steals + len(drained)
        assert q.is_empty() and len(q) == 0

    def test_stats_is_a_snapshot(self):
        q = WorkerQueues(2)
        q.push(mk())
        before = q.stats
        q.acquire(0)
        assert before.popped_local == 0
        assert before.executed_per_worker == [0, 0]
        assert q.stats.popped_local == 1


class TestHotPathInvariants:
    """Fabric invariants of the lock-free per-worker deques."""

    def test_live_size_matches_sum_of_depths(self):
        q = WorkerQueues(3)
        for i in range(7):
            q.push(mk(i))
        assert len(q) == sum(q.depth(w) for w in range(3)) == 7
        q.pop_local(0)
        q.steal(0)
        assert len(q) == sum(q.depth(w) for w in range(3)) == 5

    def test_conservation_over_random_op_sequence(self):
        import random

        rng = random.Random(2015)
        q = WorkerQueues(4)
        drained = 0
        for step in range(500):
            op = rng.randrange(4)
            if op == 0:
                q.push(mk(step))
            elif op == 1:
                q.pop_local(rng.randrange(4))
            elif op == 2:
                q.steal(rng.randrange(4))
            elif op == 3 and rng.random() < 0.05:
                drained += len(q.drain())
            # Every task is accounted for at every step.
            s = q.stats
            assert len(q) == sum(q.depth(w) for w in range(4))
            assert (
                s.pushed
                == s.popped_local + s.steals + len(q) + drained
            )

    def test_round_robin_wraps_over_many_pushes(self):
        q = WorkerQueues(3)
        for i in range(9):
            q.push(mk(i))
        assert [q.depth(w) for w in range(3)] == [3, 3, 3]

    def test_explicit_push_does_not_advance_round_robin(self):
        q = WorkerQueues(3)
        q.push(mk(), worker=2)
        assert q.push(mk()) == 0  # rr pointer untouched

    def test_steal_ignores_thief_own_queue(self):
        q = WorkerQueues(3)
        q.push(mk(), worker=1)
        assert q.steal(1) is None  # own queue is not a victim
        assert q.stats.failed_steals == 1
        assert q.depth(1) == 1

    def test_drain_resets_live_size(self):
        q = WorkerQueues(2)
        for i in range(5):
            q.push(mk(i))
        q.drain()
        assert len(q) == 0 and q.is_empty()
        q.push(mk())
        assert len(q) == 1

    def test_fifo_preserved_across_mixed_pop_and_steal(self):
        q = WorkerQueues(2)
        a, b, c = mk(1), mk(2), mk(3)
        q.push(a, worker=0)
        q.push(b, worker=0)
        q.push(c, worker=0)
        assert q.steal(1) is a   # oldest first, even for thieves
        assert q.pop_local(0) is b
        assert q.steal(1) is c

    def test_concurrent_acquire_consumes_each_task_once(self):
        # Real threads hammer the lock-free pop path: every task must
        # leave by exactly one worker, with no duplicates or losses.
        n_workers, n_tasks = 4, 2000
        q = WorkerQueues(n_workers)
        tasks = [mk(i) for i in range(n_tasks)]
        for t in tasks:
            q.push(t)
        got: list[list[Task]] = [[] for _ in range(n_workers)]
        stop = threading.Event()

        def consume(w):
            while not stop.is_set():
                task = q.acquire(w)
                if task is None:
                    if q.is_empty():
                        return
                else:
                    got[w].append(task)

        threads = [
            threading.Thread(target=consume, args=(w,))
            for w in range(n_workers)
        ]
        # A short switch interval forces preemption inside pop/steal.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
            stop.set()
        assert not any(th.is_alive() for th in threads)
        consumed = [t for per in got for t in per]
        assert len(consumed) == n_tasks
        assert {id(t) for t in consumed} == {id(t) for t in tasks}
        s = q.stats
        assert s.popped_local + s.steals == n_tasks
        assert sum(s.executed_per_worker) == n_tasks


def _threaded_engine_fabric(n_workers):
    """The fabric a stopped threaded engine owns: before the fabrics were
    merged this was a separate sharded class."""
    rt = Scheduler(policy="accurate", n_workers=n_workers, engine="threaded")
    rt.finish()
    return rt.engine.queues


class TestShardedFabric:
    """The threaded engine's fabric, once its own sharded class, keeps
    the WorkerQueues discipline: round-robin push, FIFO pop, steal after
    the thief, with lock-free worker-side operations."""

    @pytest.mark.parametrize(
        "make",
        [WorkerQueues, _threaded_engine_fabric],
        ids=["WorkerQueues", "ShardedWorkerQueues"],
    )
    def test_discipline_matches_locked_fabric(self, make):
        q = make(3)
        assert isinstance(q, WorkerQueues)
        workers = [q.push(mk(i)) for i in range(6)]
        assert workers == [0, 1, 2, 0, 1, 2]
        a = q.pop_local(0)
        assert a.args == (0,)            # FIFO
        assert q.steal(0).args == (1,)   # first victim after thief
        assert len(q) == 4
        assert q.depth(1) == 1

    def test_push_sets_queued_state_and_validates_worker(self):
        q = WorkerQueues(2)
        t = mk()
        q.push(t)
        assert t.state is TaskState.QUEUED
        with pytest.raises(SchedulerError):
            q.push(mk(), worker=5)
        with pytest.raises(SchedulerError):
            WorkerQueues(0)

    def test_steal_ignores_own_shard(self):
        q = WorkerQueues(3)
        q.push(mk(), worker=1)
        assert q.steal(1) is None
        assert q.stats.failed_steals == 1
        assert q.depth(1) == 1


class TestFabricContractOnEveryEngine:
    """Every engine runs its tasks through one :class:`WorkerQueues`:
    each task enters once and leaves by exactly one pop or steal."""

    @pytest.mark.parametrize("engine", ["simulated", "threaded", "process"])
    def test_spawn_taskwait_conserves_tasks(self, engine):
        rt = Scheduler(policy="accurate", n_workers=2, engine=engine)
        handles = []
        for _ in range(2):
            handles += [
                rt.spawn(_double, i, cost=TaskCost(10_000.0))
                for i in range(12)
            ]
            rt.taskwait()
        report = rt.finish()
        assert [h.result for h in handles] == [2 * i for i in range(12)] * 2
        s = report.queue_stats
        assert s.pushed == s.popped_local + s.steals == report.tasks_total
        assert report.tasks_total == 24
        assert sum(s.executed_per_worker) == report.tasks_total
