"""Online-DVFS substrate: frequency tables, epoch integration, samplers.

The ISSUE-4 satellite coverage for :mod:`repro.energy.dvfs` edge cases:
clamping to the frequency table, zero-length intervals, and round-trips
through :class:`~repro.config.RuntimeConfig` serialization.
"""

from __future__ import annotations

import pytest

from repro import RuntimeConfig, Scheduler
from repro.energy import (
    DEFAULT_FREQUENCY_TABLE,
    XEON_E5_2650,
    DvfsEpoch,
    EnergyReport,
    FrequencyTable,
    IntervalSampler,
    SimulatedRapl,
    best_factor,
    energy_with_epochs,
    predicted_energy,
)
from repro.runtime.errors import EnergyModelError, SchedulerError
from repro.runtime.task import ExecutionKind
from repro.sim.trace import ExecutionTrace, Segment

MACHINE = XEON_E5_2650.with_workers(4)


def _trace(segments):
    trace = ExecutionTrace(4)
    for worker, start, end in segments:
        trace.record(
            Segment(worker, start, end, tid=0, kind=ExecutionKind.ACCURATE)
        )
    return trace


class TestFrequencyTable:
    def test_default_table_contains_nominal(self):
        assert 1.0 in DEFAULT_FREQUENCY_TABLE.factors
        assert DEFAULT_FREQUENCY_TABLE.factors == (0.6, 0.8, 1.0, 1.2)

    @pytest.mark.parametrize(
        "requested, expected",
        [
            (1.0, 1.0),
            (0.95, 1.0),
            (0.85, 0.8),
            (0.05, 0.6),  # below the table: clamp to the slowest step
            (9.99, 1.2),  # above the table: clamp to the fastest step
            (0.7, 0.6),   # float midpoint: 0.7-0.6 <= 0.8-0.7
            (1.05, 1.0),
            (1.15, 1.2),
        ],
    )
    def test_clamp(self, requested, expected):
        assert DEFAULT_FREQUENCY_TABLE.clamp(requested) == expected

    def test_clamp_nan_raises(self):
        with pytest.raises(EnergyModelError):
            DEFAULT_FREQUENCY_TABLE.clamp(float("nan"))

    def test_factors_are_sorted_on_construction(self):
        table = FrequencyTable((1.2, 0.6, 1.0))
        assert table.factors == (0.6, 1.0, 1.2)
        assert table.min_factor == 0.6
        assert table.max_factor == 1.2
        assert list(table) == [0.6, 1.0, 1.2]

    @pytest.mark.parametrize(
        "factors",
        [(), (0.0, 1.0), (-0.5, 1.0), (0.8, 0.8, 1.0), (0.8, 1.2)],
    )
    def test_invalid_tables_raise(self, factors):
        with pytest.raises(EnergyModelError):
            FrequencyTable(factors)


class TestEnergyWithEpochs:
    def test_no_epochs_matches_plain_integration(self):
        trace = _trace([(0, 0.0, 1.0), (1, 0.5, 2.0)])
        plain = EnergyReport.from_trace(trace, MACHINE)
        piecewise = energy_with_epochs(trace, MACHINE, [])
        assert piecewise.total_j == pytest.approx(plain.total_j)
        assert piecewise.busy_s == pytest.approx(plain.busy_s)

    def test_nominal_epochs_match_plain_integration(self):
        trace = _trace([(0, 0.0, 2.0)])
        plain = EnergyReport.from_trace(trace, MACHINE)
        piecewise = energy_with_epochs(
            trace, MACHINE, [DvfsEpoch(0.0, 1.0), DvfsEpoch(1.0, 1.0)]
        )
        assert piecewise.total_j == pytest.approx(plain.total_j)

    def test_downclocked_epoch_cuts_active_power(self):
        trace = _trace([(0, 0.0, 2.0)])
        nominal = energy_with_epochs(trace, MACHINE, [])
        halfway = energy_with_epochs(
            trace, MACHINE, [DvfsEpoch(1.0, 0.6)]
        )
        # Active power in [1, 2] drops to idle + extra*0.6^3; static
        # power is frequency-independent, so only the active channel
        # shrinks.
        expected_drop = (
            MACHINE.busy_extra_w() * (1.0 - 0.6**3) * 1.0
        )
        assert nominal.total_j - halfway.total_j == pytest.approx(
            expected_drop
        )

    def test_zero_length_epoch_contributes_nothing(self):
        trace = _trace([(0, 0.0, 2.0)])
        a = energy_with_epochs(
            trace, MACHINE, [DvfsEpoch(1.0, 0.6)]
        )
        b = energy_with_epochs(
            trace,
            MACHINE,
            # A switch to 1.2 that is immediately superseded at the
            # same instant: the 1.2 epoch has zero length.
            [DvfsEpoch(1.0, 1.2), DvfsEpoch(1.0, 0.6)],
        )
        assert b.total_j == pytest.approx(a.total_j)

    def test_zero_length_window(self):
        report = energy_with_epochs(ExecutionTrace(4), MACHINE, [], 0.0)
        assert report.total_j == 0.0
        assert report.window_s == 0.0

    def test_epoch_beyond_window_is_clipped(self):
        trace = _trace([(0, 0.0, 1.0)])
        capped = energy_with_epochs(
            trace, MACHINE, [DvfsEpoch(5.0, 0.6)], window_s=1.0
        )
        plain = energy_with_epochs(trace, MACHINE, [], window_s=1.0)
        assert capped.total_j == pytest.approx(plain.total_j)

    @pytest.mark.parametrize(
        "epochs",
        [[DvfsEpoch(0.0, 0.0)], [DvfsEpoch(-1.0, 0.8)]],
    )
    def test_invalid_epochs_raise(self, epochs):
        with pytest.raises(EnergyModelError):
            energy_with_epochs(_trace([(0, 0.0, 1.0)]), MACHINE, epochs)

    def test_window_shorter_than_trace_raises(self):
        with pytest.raises(EnergyModelError):
            energy_with_epochs(
                _trace([(0, 0.0, 2.0)]), MACHINE, [], window_s=1.0
            )


class TestPredictedEnergy:
    def test_zero_work_is_free(self):
        assert predicted_energy(MACHINE, 1.0, 0.0, 4) == 0.0

    def test_downclock_trades_static_for_dynamic(self):
        # E(f) = static/(width*f)*W + extra*f^2*W: U-shaped in f.
        energies = {
            f: predicted_energy(MACHINE, f, 10.0, 4)
            for f in (0.6, 0.8, 1.0, 1.2)
        }
        best = best_factor(MACHINE, 10.0, 4)
        assert energies[best] == min(energies.values())

    def test_best_factor_zero_work_is_nominal(self):
        assert best_factor(MACHINE, 0.0, 4) == 1.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"factor": 0.0},
            {"factor": -1.0},
            {"busy_nominal_s": -1.0},
            {"width": 0},
        ],
    )
    def test_invalid_inputs_raise(self, kwargs):
        args = {"factor": 1.0, "busy_nominal_s": 1.0, "width": 4}
        args.update(kwargs)
        with pytest.raises(EnergyModelError):
            predicted_energy(MACHINE, **args)


class TestIntervalSampler:
    def test_intervals_sum_to_cumulative(self):
        trace = _trace([(0, 0.0, 1.0), (1, 1.0, 3.0), (2, 2.5, 4.0)])
        sampler = IntervalSampler(MACHINE, trace)
        total = 0.0
        for t in (0.5, 1.0, 2.0, 4.0):
            total += sampler.sample(t).total_j
        direct = EnergyReport.from_trace(trace, MACHINE, window_s=4.0)
        assert total == pytest.approx(direct.total_j)
        assert sampler.cumulative.total_j == pytest.approx(direct.total_j)

    def test_zero_length_interval_is_zero(self):
        trace = _trace([(0, 0.0, 1.0)])
        sampler = IntervalSampler(MACHINE, trace)
        sampler.sample(0.5)
        again = sampler.sample(0.5)
        assert again.total_j == 0.0
        assert again.window_s == 0.0

    def test_late_recorded_segment_is_not_lost(self):
        """A task in flight at sample time lands in a later interval —
        cumulative-differencing keeps the total exact."""
        trace = ExecutionTrace(2)
        sampler = IntervalSampler(MACHINE, trace)
        first = sampler.sample(1.0)  # nothing recorded yet: idle energy
        assert first.busy_s == 0.0
        # The segment spanning the first window is recorded afterwards
        # (it finished after the sample), as live engines do.
        trace.record(
            Segment(0, 0.5, 1.5, tid=0, kind=ExecutionKind.ACCURATE)
        )
        second = sampler.sample(2.0)
        direct = EnergyReport.from_trace(trace, MACHINE, window_s=2.0)
        assert first.total_j + second.total_j == pytest.approx(
            direct.total_j
        )

    def test_time_running_backwards_raises(self):
        sampler = IntervalSampler(MACHINE, ExecutionTrace(2))
        sampler.sample(1.0)
        with pytest.raises(EnergyModelError):
            sampler.sample(0.5)

    def test_epoch_aware_sampling(self):
        trace = _trace([(0, 0.0, 2.0)])
        epochs = [DvfsEpoch(1.0, 0.6)]
        sampler = IntervalSampler(MACHINE, trace, epochs=epochs)
        total = sampler.sample(1.0).total_j + sampler.sample(2.0).total_j
        direct = energy_with_epochs(trace, MACHINE, epochs, window_s=2.0)
        assert total == pytest.approx(direct.total_j)


class TestRaplSampler:
    def test_domain_intervals_sum_to_reads(self):
        trace = _trace([(0, 0.0, 1.0), (1, 0.5, 2.0)])
        rapl = SimulatedRapl(MACHINE)
        sampler = rapl.sampler(trace)
        totals: dict[str, float] = {}
        for t in (0.7, 2.0):
            for name, joules in sampler.sample(t).items():
                totals[name] = totals.get(name, 0.0) + joules
        for domain in rapl.domains():
            direct = rapl.read_joules_between(domain, trace, 0.0, 2.0)
            assert totals[domain.name] == pytest.approx(
                direct, abs=2e-5  # one RAPL LSB per differencing step
            )

    def test_backwards_time_raises(self):
        sampler = SimulatedRapl(MACHINE).sampler(ExecutionTrace(4))
        sampler.sample(1.0)
        with pytest.raises(EnergyModelError):
            sampler.sample(0.1)


class TestRuntimeConfigRoundTrip:
    """DVFS knobs survive the spec-string serialization boundary."""

    def test_governor_dvfs_spec_round_trips(self):
        cfg = RuntimeConfig(
            policy="lqh",
            governor=(
                "governor:budget_j=2.5,interval=0.002,dvfs=true,"
                "freq_table=(0.6,1.0)"
            ),
        )
        restored = RuntimeConfig.from_dict(cfg.to_dict())
        assert restored == cfg
        gov = restored.build_governor()
        assert gov.dvfs is True
        assert gov.freq_table.factors == (0.6, 1.0)

    def test_scaled_machine_spec_round_trips(self):
        cfg = RuntimeConfig(machine="xeon:frequency_ghz=2.5", n_workers=4)
        restored = RuntimeConfig.from_dict(cfg.to_dict())
        assert restored == cfg
        assert restored.build_machine().frequency_ghz == 2.5

    def test_scheduler_set_frequency_reflected_in_report(self):
        """An online switch shows up in epochs and the final energy."""
        from repro.runtime.task import TaskCost

        def run(factor: float | None):
            sched = Scheduler(policy="accurate", n_workers=2)
            cost = TaskCost(2.0e9)  # 1 virtual second nominal
            for _ in range(4):
                sched.spawn(lambda: None, cost=cost)
            if factor is not None:
                sched.engine.set_frequency_factor(factor, at=0.0)
            report = sched.finish()
            return sched, report

        _, nominal = run(None)
        sched, slowed = run(0.5)
        assert sched.engine.accounting.dvfs_epochs == [
            DvfsEpoch(0.0, 0.5)
        ]
        # Half frequency: tasks take twice the virtual time...
        assert slowed.makespan_s == pytest.approx(
            2 * nominal.makespan_s, rel=0.01
        )
        # ...and the energy integration billed the 0.5-factor power
        # point (busy time at idle + extra*f^3), not the nominal one.
        machine = sched.machine_model
        scaled_active_w = (
            machine.core_idle_w + machine.busy_extra_w() * 0.5**3
        )
        expected_active = slowed.energy.busy_s * scaled_active_w
        assert slowed.energy.core_active_j == pytest.approx(
            expected_active, rel=0.01
        )


class TestWallClockDvfs:
    """Wall-clock engines cannot retime real execution: a switch only
    records the epoch that bills the downclocked power point."""

    @pytest.mark.parametrize("engine", ["threaded", "process"])
    def test_switch_records_epoch(self, engine):
        sched = Scheduler(policy="accurate", n_workers=2, engine=engine)
        try:
            engine = sched.engine
            assert not engine.dvfs_scales_time
            t0 = engine.master_time
            engine.set_frequency_factor(0.75)  # at=None: wall-clock now
            (first,) = engine.accounting.dvfs_epochs
            assert first.factor == 0.75
            assert t0 <= first.t <= engine.master_time
            t = first.t + 0.25
            engine.set_frequency_factor(0.5, at=t)
            assert engine.accounting.dvfs_epochs == [
                first, DvfsEpoch(t, 0.5)
            ]
        finally:
            sched.finish()

    @pytest.mark.parametrize("engine", ["threaded", "process"])
    @pytest.mark.parametrize("factor", [0.0, -0.5])
    def test_nonpositive_factor_raises(self, engine, factor):
        sched = Scheduler(policy="accurate", n_workers=2, engine=engine)
        try:
            with pytest.raises(SchedulerError, match="frequency factor"):
                sched.engine.set_frequency_factor(factor, at=0.1)
            assert sched.engine.accounting.dvfs_epochs == []
        finally:
            sched.finish()
