"""The scenario conformance harness: every registered scenario must
produce a figure AND a passing machine-checked assertion set."""

import pytest

from repro.runtime.errors import ConfigError
from repro.serve.scenarios import (
    SCENARIOS,
    Check,
    ScenarioReport,
    cluster_smoke_jobs,
    run_cluster_scale,
    run_scenarios,
    scenario,
)

EXPECTED = {
    "streaming-degrade",
    "streaming-cache-replay",
    "anytime-jacobi",
    "anytime-kmeans",
    "faults-under-serve",
    "faults-under-cluster",
    "serve-isolation",
    "cluster-isolation",
    "cluster-scale",
    "compile-parity",
}


class TestRegistry:
    def test_all_issue_scenarios_registered(self):
        assert EXPECTED <= set(SCENARIOS)

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigError):

            @scenario("streaming-degrade", "dup")
            def dup(**kwargs):  # pragma: no cover - never runs
                raise AssertionError

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigError, match="unknown scenario"):
            run_scenarios(["no-such-scenario"])


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_conforms(name):
    """The conformance contract: run the scenario small, demand a
    non-empty frame, a renderable figure, and all checks green."""
    report = run_scenarios([name], small=True, n_workers=8)[0]
    assert isinstance(report, ScenarioReport)
    assert report.name == name
    assert len(report.frame) > 0, "scenario produced an empty trace"
    assert report.checks, "scenario registered no assertions"
    assert all(isinstance(c, Check) for c in report.checks)
    rendered = report.render()
    assert name in rendered
    for check in report.checks:
        assert check.passed, f"{name}: {check.name} — {check.detail}"
    assert "CONFORMS" in rendered


@pytest.mark.parametrize(
    "name", ["serve-isolation", "cluster-scale", "cluster-isolation"]
)
def test_scenario_deterministic_on_simulated_engine(name):
    """Virtual-time scenarios reproduce bit-for-bit: identical frame
    records and check details on a second run."""
    first, second = (
        run_scenarios([name], small=True, n_workers=8)[0]
        for _ in range(2)
    )
    assert first.frame.to_records() == second.frame.to_records()
    assert [(c.name, c.passed, c.detail) for c in first.checks] == [
        (c.name, c.passed, c.detail) for c in second.checks
    ]


class TestSmokeWorkload:
    def test_two_tenants_distinct_seeds(self):
        jobs = cluster_smoke_jobs(5, small=True)
        assert len(jobs) == 10
        assert {j.tenant for j in jobs} == {"a", "b"}
        seeds = [j.args["seed"] for j in jobs]
        assert len(set(seeds)) == len(seeds)


class TestScaleRun:
    def test_single_run_shape(self):
        run = run_cluster_scale(2, 10, small=True)
        assert run["shards"] == 2
        assert run["ok"] == run["jobs"] == 20
        assert run["makespan_s"] > 0
        assert set(run["spread"]) == {0, 1}
        assert sum(run["spread"].values()) == 20


class TestReportRendering:
    def test_failed_check_renders_violation(self):
        from repro.harness.frames import TraceFrame

        report = ScenarioReport(
            name="x",
            title="t",
            frame=TraceFrame({"a": [1]}),
            checks=[Check("bad", False, "boom")],
        )
        assert not report.passed
        rendered = report.render()
        assert "FAIL" in rendered
        assert "VIOLATION" in rendered
