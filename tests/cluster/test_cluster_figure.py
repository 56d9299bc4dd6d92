"""Cluster scaling, ledger parity and isolation gates (small), as the
``cluster-scale`` and ``cluster-isolation`` scenarios.

Each test reads the scenario's trace frame directly and also requires
the matching ``Check`` row to pass.
"""

import pytest

from repro.serve.scenarios import (
    ISOLATION_BANDS,
    LEDGER_PARITY,
    ScenarioReport,
    run_scenarios,
)


@pytest.fixture(scope="module")
def scale() -> ScenarioReport:
    """One small cluster-scale run shared by the gate assertions."""
    return run_scenarios(["cluster-scale"], small=True, n_workers=16)[0]


@pytest.fixture(scope="module")
def iso() -> ScenarioReport:
    return run_scenarios(["cluster-isolation"], small=True, n_workers=16)[0]


def check(report: ScenarioReport, prefix: str):
    (found,) = [c for c in report.checks if c.name.startswith(prefix)]
    return found


def by(report: ScenarioReport, key: str, value: str) -> dict:
    """Map the frame's ``key`` column to its ``value`` column."""
    return dict(zip(report.frame.col(key), report.frame.col(value)))


class TestGates:
    def test_scaling_gates(self, scale):
        # The acceptance bars on the deterministic virtual timeline:
        # >=3x jobs/s at 4 shards, >=5x at 8.
        speedup = by(scale, "shards", "speedup")
        assert speedup[4] >= 3.0
        assert speedup[8] >= 5.0
        assert check(scale, ">=3x jobs/s at 4 shards").passed
        assert check(scale, ">=5x jobs/s at 8 shards").passed

    def test_every_job_served_at_every_width(self, scale):
        for run in scale.frame.rows():
            assert run["ok"] == run["jobs"]
            assert run["min_shard_jobs"] > 0
        assert check(scale, "every job served at every width").passed
        assert check(scale, "every shard got work").passed

    def test_ledger_parity_within_band(self, scale):
        assert scale.frame.max("parity_dev") <= LEDGER_PARITY
        assert check(scale, "A's ledger spend within 2%").passed

    def test_isolation_band(self, iso):
        assert all(check(iso, band).passed for band in ISOLATION_BANDS)
        quality = by(iso, "stream", "mean_quality")
        assert quality["B shared"] - quality["B solo"] == pytest.approx(
            0.0, abs=0.05
        )
        # A was actually squeezed by its 60% budget...
        ratio = by(iso, "stream", "mean_ratio")
        assert 0.0 < ratio["A shared"] <= 1.0
        assert check(iso, "A served at mean ratio in (0, 1]").passed
        assert check(iso, "A's budget below its solo price").passed

    def test_render_mentions_verdicts(self, scale, iso):
        text = scale.render()
        assert "ledger spend" in text
        assert "[PASS]" in text
        assert "=> CONFORMS" in text
        text = iso.render()
        assert "isolation" in text
        assert "=> CONFORMS" in text
