"""The registry is the only front door to policies and engines.

Spec strings build every component without a warning, and no example
or benchmark spells out a concrete policy/engine factory call.
"""

from __future__ import annotations

import warnings

from repro.runtime.scheduler import Scheduler


def _collect(body) -> list[warnings.WarningMessage]:
    """Run ``body`` under the default once-per-location filter."""
    with warnings.catch_warnings(record=True) as record:
        warnings.resetwarnings()
        warnings.simplefilter("default")
        body()
    return [
        w for w in record if issubclass(w.category, DeprecationWarning)
    ]


class TestOncePerCallSite:
    def test_spec_string_construction_is_warning_free(self):
        def body():
            for spec in ("process", "process:shm=true"):
                rt = Scheduler(policy="accurate", n_workers=2, engine=spec)
                rt.finish()

        assert _collect(body) == []


class TestDeprecatedFormsStillWork:
    def test_no_deprecated_usage_in_examples_or_benchmarks(self):
        """Runnable example/benchmark code builds components through
        spec strings only."""
        from pathlib import Path

        root = Path(__file__).resolve().parents[2]
        offenders = []
        for folder in ("examples", "benchmarks"):
            for path in (root / folder).rglob("*.py"):
                text = path.read_text()
                if (
                    "make_policy(" in text
                    or "make_engine(" in text
                    or "ProcessPoolEngine(" in text
                ):
                    offenders.append(str(path))
        assert offenders == []
