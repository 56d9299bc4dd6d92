"""TraceFrame: the pure-Python columnar frame behind the scenario
conformance harness."""

import pytest

from repro.harness.frames import TraceFrame, percentile
from repro.runtime.errors import ConfigError


@pytest.fixture()
def frame():
    return TraceFrame.from_records(
        [
            {"tenant": "a", "code": 200, "energy": 1.0},
            {"tenant": "b", "code": 429, "energy": 0.0},
            {"tenant": "a", "code": 200, "energy": 3.0},
        ]
    )


class TestConstruction:
    def test_misaligned_columns_rejected(self):
        with pytest.raises(ConfigError, match="align"):
            TraceFrame({"a": [1, 2], "b": [1]})

    def test_from_records_fills_missing_keys_with_none(self):
        f = TraceFrame.from_records(
            [{"a": 1}, {"a": 2, "b": 3}]
        )
        assert f.col("b") == [None, 3]
        assert f.columns == ["a", "b"]

    def test_from_reports_uses_to_dict(self):
        from repro.serve.server import JobReport

        f = TraceFrame.from_reports(
            [JobReport(job_id="j", tenant="t", kernel="k")]
        )
        assert f.col("tenant") == ["t"]

    def test_empty_frame(self):
        f = TraceFrame()
        assert len(f) == 0
        assert f.render() == "(empty frame)"


class TestAccess:
    def test_len_and_col(self, frame):
        assert len(frame) == 3
        assert frame.col("tenant") == ["a", "b", "a"]

    def test_unknown_column_raises(self, frame):
        with pytest.raises(ConfigError, match="no column"):
            frame.col("nope")

    def test_rows_round_trip(self, frame):
        assert TraceFrame.from_records(frame.rows()).col(
            "code"
        ) == frame.col("code")

    def test_select(self, frame):
        assert frame.select("tenant", "code").columns == [
            "tenant", "code",
        ]


class TestTransforms:
    def test_filter(self, frame):
        ok = frame.filter(lambda r: r["code"] == 200)
        assert len(ok) == 2
        assert set(ok.col("tenant")) == {"a"}

    def test_groupby(self, frame):
        groups = frame.groupby("tenant")
        assert set(groups) == {"a", "b"}
        assert len(groups["a"]) == 2

    def test_with_column(self, frame):
        f = frame.with_column("ok", lambda r: r["code"] == 200)
        assert f.col("ok") == [True, False, True]


class TestAggregation:
    def test_mean_sum_min_max(self, frame):
        assert frame.mean("energy") == pytest.approx(4.0 / 3)
        assert frame.sum("energy") == pytest.approx(4.0)
        assert frame.min("energy") == 0.0
        assert frame.max("energy") == 3.0

    def test_aggregates_skip_none(self):
        f = TraceFrame({"x": [1.0, None, 3.0]})
        assert f.mean("x") == 2.0

    def test_empty_aggregates_are_zero(self):
        f = TraceFrame({"x": []})
        assert f.mean("x") == 0.0
        assert f.sum("x") == 0.0

    def test_value_counts(self, frame):
        assert frame.value_counts("code") == {200: 2, 429: 1}

    def test_percentile(self, frame):
        assert frame.percentile("energy", 0.95) == 3.0


class TestBridges:
    def test_to_records(self, frame):
        records = frame.to_records()
        assert records[1] == {
            "tenant": "b", "code": 429, "energy": 0.0,
        }

    def test_to_pandas_without_pandas_raises_clear_error(self, frame):
        # pandas is deliberately absent from this toolchain; the
        # bridge must explain itself rather than ImportError.
        try:
            import pandas  # noqa: F401

            pytest.skip("pandas installed in this environment")
        except ImportError:
            pass
        with pytest.raises(ConfigError, match="pandas"):
            frame.to_pandas()

    def test_render_truncates(self):
        f = TraceFrame.from_records(
            [{"i": i} for i in range(20)]
        )
        out = f.render(max_rows=5)
        assert "more rows" in out


class TestPercentile:
    def test_nearest_rank(self):
        values = list(range(1, 101))
        assert percentile(values, 0.95) == 95
        assert percentile(values, 1.0) == 100
        assert percentile([7.0], 0.95) == 7.0

    def test_validation(self):
        with pytest.raises(ValueError, match="empty"):
            percentile([], 0.5)
        with pytest.raises(ValueError, match="q must be"):
            percentile([1], 1.5)
