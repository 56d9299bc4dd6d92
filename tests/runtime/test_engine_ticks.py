"""Periodic engine ticks: the governor's clock on every backend."""

from __future__ import annotations

import pytest

from repro import Scheduler
from repro.runtime.errors import SchedulerError
from repro.runtime.task import TaskCost


def _noop():
    return None


class TestSimulatedTicks:
    def test_ticks_fire_at_the_configured_interval(self):
        sched = Scheduler(policy="accurate", n_workers=2)
        times: list[float] = []
        sched.engine.set_tick(0.25, times.append)
        cost = TaskCost(2.0e9)  # 1 virtual second each
        for _ in range(4):
            sched.spawn(_noop, cost=cost)
        sched.finish()
        assert times, "no tick ever fired"
        # Ticks land on the virtual grid 0.25, 0.5, ... (first arming
        # happens at the first enqueue, whose master time is ~0).
        deltas = [b - a for a, b in zip(times, times[1:])]
        assert all(d == pytest.approx(0.25, abs=1e-9) for d in deltas)
        # Run spans ~2 virtual seconds on 2 workers -> ~7 ticks.
        assert 5 <= len(times) <= 9

    def test_ticks_do_not_keep_a_finished_run_alive(self):
        sched = Scheduler(policy="accurate", n_workers=2)
        sched.engine.set_tick(0.1, lambda now: None)
        sched.spawn(_noop, cost=TaskCost(2.0e9))
        report = sched.finish()  # must terminate
        assert report.tasks_total == 1

    def test_ticks_do_not_mask_a_genuine_stall(self):
        sched = Scheduler(policy="accurate", n_workers=2)
        sched.engine.set_tick(0.1, lambda now: None)
        blocker = sched.spawn(_noop, cost=TaskCost(2.0e9))
        # A dependence that can never be satisfied: waiting on a task
        # that waits on itself via an unspawned predecessor is not
        # constructible here, so instead wait on a predicate that never
        # holds once the queue drains.
        with pytest.raises(SchedulerError, match="stalled"):
            sched.engine.run_until(lambda: False, "never")
        assert blocker.tid >= 0

    def test_tick_callback_may_adjust_ratios(self):
        """Re-entrancy: the callback touches scheduler state mid-pump."""
        sched = Scheduler(policy="lqh", n_workers=2)
        sched.init_group("g", ratio=1.0)
        seen: list[float] = []

        def steer(now: float) -> None:
            sched.policy.set_ratio(0.5, group="g")
            seen.append(now)

        sched.engine.set_tick(0.25, steer)
        cost = TaskCost(1.0e9, 1.0e8)
        for i in range(8):
            sched.spawn(
                _noop,
                significance=(i % 9 + 1) / 10,
                approxfun=_noop,
                label="g",
                cost=cost,
            )
        sched.finish()
        assert seen
        assert sched.groups.get("g").ratio == 0.5

    def test_bad_interval_raises(self):
        sched = Scheduler(policy="accurate", n_workers=2)
        with pytest.raises(SchedulerError):
            sched.engine.set_tick(0.0, lambda now: None)
        sched.finish()

    def test_faulty_engine_inherits_ticks(self):
        """The fault-injecting engine subclasses SimulatedEngine, so
        the governor clock works on the unreliable-hardware scenario."""
        sched = Scheduler(
            policy="accurate",
            n_workers=2,
            engine="faulty:fault_rate=0.0",
        )
        times: list[float] = []
        sched.engine.set_tick(0.25, times.append)
        for _ in range(4):
            sched.spawn(_noop, cost=TaskCost(2.0e9))
        sched.finish()
        assert times


class TestWallClockTicks:
    """Ticks of the wall-clock engines (:class:`~repro.runtime.engine
    .WallClockEngine`), fired from their barrier wait loops."""

    def test_threaded_interval_honoured_below_idle_wait(self):
        """Ticks must fire at sub-50ms resolution (the old idle-wait
        granularity) while the master blocks at a barrier."""
        sched = Scheduler(policy="accurate", n_workers=2, engine="threaded")
        times: list[float] = []
        sched.engine.set_tick(0.005, times.append)
        for _ in range(20):
            sched.spawn(_sleepy)
        sched.finish()
        assert len(times) >= 3

    def test_bad_interval_raises_threaded(self):
        sched = Scheduler(policy="accurate", n_workers=2, engine="threaded")
        with pytest.raises(SchedulerError):
            sched.engine.set_tick(-1.0, lambda now: None)
        sched.finish()


def _sleepy():
    import time

    time.sleep(0.002)
