"""The shared accounting core: recording, attribution, report assembly.

Every execution backend writes through one
:class:`~repro.runtime.accounting.AccountingCore`; these tests pin the
core's own behaviour and the cross-engine invariants it guarantees —
most importantly that simulated, threaded and process backends produce
*schema-identical* run reports.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.energy.machine_model import XEON_E5_2650
from repro.energy.meter import EnergyReport
from repro.runtime.accounting import AccountingCore, build_run_report
from repro.sim.trace import Segment
from repro.runtime.errors import SchedulerError
from repro.runtime.scheduler import Scheduler
from repro.runtime.task import ExecutionKind, Task, TaskCost

COST = TaskCost(10_000.0, 1_000.0)


def _task(**kw) -> Task:
    return Task(fn=lambda: None, **kw)


class TestAccountingCore:
    def test_record_task_appends_segment(self):
        core = AccountingCore(2)
        t = _task(group="g")
        core.record_task(t, 1, 0.5, 2.0, ExecutionKind.ACCURATE)
        [seg] = core.trace.segments
        assert (seg.worker, seg.start, seg.end) == (1, 0.5, 2.0)
        assert seg.tid == t.tid
        assert seg.group == "g"

    def test_record_task_accumulates_host_seconds(self):
        core = AccountingCore(1)
        t = _task()
        core.record_task(t, 0, 0.0, 1.0, ExecutionKind.ACCURATE,
                         host_s=0.25)
        core.record_task(t, 0, 1.0, 2.0, ExecutionKind.ACCURATE,
                         host_s=0.5)
        assert core.host_seconds == pytest.approx(0.75)

    def test_record_task_validates_through_trace(self):
        core = AccountingCore(1)
        with pytest.raises(SchedulerError):
            core.record_task(_task(), 5, 0.0, 1.0, ExecutionKind.ACCURATE)
        with pytest.raises(SchedulerError):
            core.record_task(_task(), 0, 2.0, 1.0, ExecutionKind.ACCURATE)

    def test_master_busy_accumulates(self):
        core = AccountingCore(1)
        core.add_master_busy(0.1)
        core.add_master_busy(0.2)
        assert core.master_busy == pytest.approx(0.3)
        assert core.trace.master_busy == pytest.approx(0.3)

    def test_aggregate_views_delegate_to_trace(self):
        core = AccountingCore(2)
        t = _task()
        core.record_task(t, 0, 0.0, 1.0, ExecutionKind.ACCURATE)
        core.record_task(t, 1, 0.0, 3.0, ExecutionKind.APPROXIMATE)
        assert core.makespan == 3.0
        assert core.busy_by_worker() == [1.0, 3.0]
        assert core.utilization() == pytest.approx(4.0 / 6.0)

    def test_energy_report_matches_from_trace(self):
        core = AccountingCore(2)
        t = _task()
        core.record_task(t, 0, 0.0, 2.0, ExecutionKind.ACCURATE)
        machine = XEON_E5_2650.with_workers(2)
        direct = EnergyReport.from_trace(core.trace, machine, window_s=4.0)
        via_core = core.energy_report(machine, window_s=4.0)
        assert via_core == direct
        assert via_core.busy_s == pytest.approx(2.0)


class TestAccountingShards:
    """Thread-local deltas merged at barriers (DESIGN.md section 12)."""

    def test_records_are_deferred_until_merge(self):
        core = AccountingCore(2)
        s0, s1 = core.shard(0), core.shard(1)
        assert core.shard(0) is s0  # one shard per worker, cached
        s0.record(
            Segment(0, 0.0, 1.0, 1, ExecutionKind.ACCURATE, None), 0.25
        )
        s1.record(
            Segment(1, 0.0, 2.0, 2, ExecutionKind.APPROXIMATE, "g"), 0.5
        )
        assert core.trace.segments == []  # nothing visible yet
        assert core.merge_shards() == 2
        assert len(core.trace.segments) == 2
        assert core.host_seconds == pytest.approx(0.75)
        assert core.merge_shards() == 0  # shards drained

    def test_merge_validates_through_trace(self):
        core = AccountingCore(1)
        core.shard(0).record(
            Segment(5, 0.0, 1.0, 1, ExecutionKind.ACCURATE, None), 0.0
        )
        with pytest.raises(SchedulerError):
            core.merge_shards()

    def test_drain_leaves_concurrent_appends_for_next_merge(self):
        core = AccountingCore(1)
        shard = core.shard(0)
        seg = Segment(0, 0.0, 1.0, 1, ExecutionKind.ACCURATE, None)
        shard.record(seg, 0.1)
        taken = shard.drain()
        assert len(taken) == 1
        shard.record(seg, 0.1)  # arrives "mid-drain"
        assert len(shard.drain()) == 1


class TestEngineSharedCore:
    """Each engine owns exactly one core and exposes it uniformly."""

    @pytest.mark.parametrize(
        "engine", ["simulated", "threaded", "process"]
    )
    def test_engine_trace_is_accounting_trace(self, engine):
        rt = Scheduler(policy="accurate", n_workers=2, engine=engine)
        assert rt.engine.trace is rt.engine.accounting.trace
        rt.finish()

    def test_simulated_engine_shares_core_with_machine(self):
        # The simulated engine is the machine: its finish events (also
        # on the fault-injecting subclass) record into the same core
        # the scheduler's report reads.
        for engine in ("simulated", "faulty"):
            rt = Scheduler(policy="accurate", n_workers=2, engine=engine)
            core = rt.engine.accounting
            for _ in range(3):
                rt.spawn(lambda: None, cost=COST)
            report = rt.finish()
            assert rt.engine.accounting is core
            assert report.trace is core.trace
            assert len(core.trace.segments) == report.tasks_total == 3


def _double(x):
    return x * 2


class TestReportSchemaParity:
    """The acceptance invariant: one report schema for every backend."""

    @staticmethod
    def _report(engine):
        rt = Scheduler(policy="gtb:buffer_size=8", n_workers=2,
                       engine=engine)
        rt.init_group("g", ratio=0.5)
        for i in range(20):
            rt.spawn(
                _double,
                i,
                significance=(i % 9 + 1) / 10.0,
                label="g",
                cost=COST,
            )
        return rt.finish()

    def test_reports_are_schema_identical(self):
        reports = {
            engine: self._report(engine)
            for engine in ("simulated", "threaded", "process")
        }
        field_sets = {
            engine: {f.name for f in dataclasses.fields(rep)}
            for engine, rep in reports.items()
        }
        assert len(set(map(frozenset, field_sets.values()))) == 1
        for rep in reports.values():
            assert rep.tasks_total == 20
            assert set(rep.tasks_by_kind) == set(ExecutionKind)
            assert rep.groups.keys() == {"g"}
            assert rep.energy.total_j > 0
            assert rep.makespan_s > 0
            assert rep.trace is not None
            # Row form (what sweeps/exporters consume) is identical too.
            assert dataclasses.asdict(rep.energy).keys() == {
                "window_s", "busy_s", "package_uncore_j", "dram_j",
                "core_active_j", "core_idle_j",
            }

    def test_decision_counts_agree_across_backends(self):
        reports = [
            self._report(e)
            for e in ("simulated", "threaded", "process")
        ]
        mixes = {
            (r.accurate_tasks, r.approximate_tasks, r.dropped_tasks)
            for r in reports
        }
        # GTB stamps decisions at flush time on the master, so the
        # accurate/approximate split is engine-independent.
        assert len(mixes) == 1


class TestBuildRunReport:
    def test_counts_dropped_tasks_from_groups(self):
        rt = Scheduler(policy="gtb:buffer_size=4", n_workers=2)
        rt.init_group("g", ratio=0.0)
        for i in range(8):
            rt.spawn(_double, i, significance=0.5, label="g", cost=COST)
        report = rt.finish()
        assert report.dropped_tasks == 8
        assert report.accurate_tasks == 0

    def test_build_run_report_standalone(self):
        rt = Scheduler(policy="accurate", n_workers=2)
        for i in range(4):
            rt.spawn(_double, i, cost=COST)
        report = rt.finish()
        rebuilt = build_run_report(
            policy_name=rt.policy.describe(),
            n_workers=rt.engine.n_workers,
            trace=report.trace,
            makespan=report.makespan_s,
            machine=rt.machine_model,
            groups=rt.groups,
            queue_stats=rt.engine.queue_stats,
            dep_stats=rt.deps.stats,
            tasks_total=4,
        )
        assert rebuilt.energy == report.energy
        assert rebuilt.tasks_by_kind == report.tasks_by_kind
        assert rebuilt.makespan_s == report.makespan_s
