"""The two-tenant acceptance run, as the ``serve-isolation`` scenario:
tenant A budgeted at 60 % of its solo energy is degraded while tenant
B's quality and p95 latency stay within 5 % of B's solo run.

Everything runs on the simulated backend, so latencies are virtual
seconds and every assertion is deterministic.  Each test reads the
scenario's trace frame directly and also requires the matching
``Check`` row to pass, so a check that stops gating shows up here.
"""

import pytest

from repro.serve.scenarios import (
    ISOLATION_BANDS,
    ISOLATION_TOLERANCE,
    ScenarioReport,
    run_scenarios,
)


@pytest.fixture(scope="module")
def report() -> ScenarioReport:
    return run_scenarios(["serve-isolation"], small=True, n_workers=16)[0]


def check(report: ScenarioReport, prefix: str):
    (found,) = [c for c in report.checks if c.name.startswith(prefix)]
    return found


def stream(report: ScenarioReport, name: str) -> dict:
    (row,) = [r for r in report.frame.rows() if r["stream"] == name]
    return row


class TestAcceptance:
    def test_a_is_degraded_under_budget(self, report):
        assert check(report, "A degraded under budget").passed
        # The governor actually moved the knob: A's mean served ratio
        # sits strictly between the floor and fully accurate.
        assert 0.0 < stream(report, "A shared")["mean_ratio"] < 0.95

    def test_a_tracks_its_budget(self, report):
        # Within 15% of the 60%-of-solo budget -- and far below the
        # unbudgeted solo energy.
        assert check(report, "A spent <= 1.15x budget").passed

    def test_b_quality_unaffected(self, report):
        assert check(report, ISOLATION_BANDS[1]).passed
        solo, shared = stream(report, "B solo"), stream(report, "B shared")
        delta = abs(shared["mean_quality"] - solo["mean_quality"])
        assert delta <= ISOLATION_TOLERANCE
        # B runs accurate in both worlds: quality is exactly reference.
        assert check(report, "B runs accurate").passed
        assert shared["mean_quality"] == 0.0

    def test_b_p95_latency_within_5pct_of_solo(self, report):
        assert check(report, ISOLATION_BANDS[0]).passed
        solo = stream(report, "B solo")["p95_latency_s"]
        shared = stream(report, "B shared")["p95_latency_s"]
        assert abs(shared - solo) / solo <= ISOLATION_TOLERANCE

    def test_acceptance_bit(self, report):
        assert all(check(report, band).passed for band in ISOLATION_BANDS)
        assert report.passed

    def test_every_b_job_really_executed(self, report):
        # The latency comparison must not be a cache artifact.
        assert check(report, "every B job executed").passed
        assert stream(report, "B solo")["jobs"] > 0
        assert (
            stream(report, "B shared")["jobs"]
            == stream(report, "B solo")["jobs"]
        )


class TestRendering:
    def test_render_carries_the_verdict(self, report):
        text = report.render()
        assert "serve-isolation" in text
        assert "60%" in text
        assert "[PASS] A degraded under budget" in text
        assert "B solo" in text and "B shared" in text
        assert "=> CONFORMS" in text
