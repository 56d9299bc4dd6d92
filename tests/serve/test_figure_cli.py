"""The fig-scenarios harness target and the serve CLI smoke mode."""

from repro.harness.__main__ import main
from repro.harness.frames import TraceFrame
from repro.serve.scenarios import SCENARIOS, Check, ScenarioReport


class TestFigScenariosCli:
    def test_conforming_scenario_exits_zero(self, capsys):
        argv = ["fig-scenarios", "--small", "--scenario", "cluster-scale"]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert "[PASS] >=3x jobs/s at 4 shards" in captured.out
        assert "all 1 scenarios conform" in captured.err

    def test_failed_check_exits_nonzero(self, capsys, monkeypatch):
        def failing(*, small, n_workers):
            return ScenarioReport(
                name="always-fails",
                title="t",
                frame=TraceFrame({"a": [1]}),
                checks=[Check("bar", False, "missed")],
            )

        monkeypatch.setitem(SCENARIOS, "always-fails", failing)
        argv = ["fig-scenarios", "--small", "--scenario", "always-fails"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert "[FAIL] bar" in captured.out
        assert "FAILED: always-fails" in captured.err


class TestServeSmokeCli:
    def test_smoke_pushes_jobs_across_two_backends(self, capsys):
        assert main(["serve", "--smoke", "24", "--workers", "4"]) == 0
        captured = capsys.readouterr()
        assert "serve smoke OK" in captured.err
        assert "[serve-smoke] simulated" in captured.out
        assert "[serve-smoke] threaded" in captured.out
