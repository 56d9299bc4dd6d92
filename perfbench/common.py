"""Helpers shared by the workloads: finding the program, statistics,
output checks and the result line."""

from __future__ import annotations

import math
import os
import statistics
import sys
import time

#: Root of the checkout (the directory holding ``perfbench/``).
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Where spans and gateway summaries are written (git-ignored).
OUT_DIR = os.path.join(ROOT, ".perfbench")

#: Upper bound on each kernel's own lower-is-better quality score for
#: any served ratio (inverse PSNR for the image kernels, relative error
#: otherwise).  Over 400 inputs per kernel at ratio 0.2, the lowest
#: ratio any workload serves, each bound is at least six standard
#: deviations above the mean score and above the largest one seen, so a
#: degraded answer passes and a wrong one fails.
QUALITY_BOUND = {
    "sobel": 0.09,
    "dct": 0.05,
    "mc-pi": 0.035,
    "fluidanimate": 0.001,
    "jacobi": 0.98,
    "kmeans": 0.1,
}
#: Largest accepted distance of a Monte-Carlo estimate from pi (about
#: six standard deviations at the fewest samples a served job keeps).
PI_TOLERANCE = 0.1


#: Seconds :func:`probe` takes on the reference host (a 2-vCPU x86 VM at
#: 2.1 GHz, CPython 3.11, in its faster state).  Only the scale of the
#: host-adjusted timings depends on it.
PROBE_REF_S = 0.0103


def probe() -> float:
    """Seconds a fixed pure-Python loop takes right now.

    The loop touches nothing of the program, so its time tracks only the
    speed the host gives this process.  On a shared host that speed
    drifts by tens of percent over minutes; the CPU-bound in-process
    workloads divide their timings by ``slowness`` (this time over
    :data:`PROBE_REF_S`, probed next to each measurement) so runs taken
    minutes apart compare.
    """
    t0 = time.perf_counter()
    total = 0
    for i in range(150_000):
        total += i * i % 7
    return time.perf_counter() - t0


def slowness(samples: int = 2) -> float:
    """The host's current slowness: median probe time over the reference."""
    return statistics.median(probe() for _ in range(samples)) / PROBE_REF_S


def import_program() -> None:
    """Put the checkout's ``src`` on the path; exit 2 when the program
    is not there (e.g. a directory holding only the benchmark)."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: no program under {src}", file=sys.stderr)
        raise SystemExit(2)
    if src not in sys.path:
        sys.path.insert(0, src)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def monotone_non_increasing(curve: list[float], tol: float = 1e-6) -> bool:
    return all(b <= a + tol for a, b in zip(curve, curve[1:]))


def check_counts(accurate: int, approximate: int, dropped: int,
                 total: int) -> bool:
    return accurate + approximate + dropped == total


def check_quality(kernel: str, quality) -> bool:
    return (
        quality is not None
        and math.isfinite(quality)
        and 0.0 <= quality <= QUALITY_BOUND[kernel]
    )


class Result:
    """Tallies and metrics of one run, printed as the last line."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.metrics: dict[str, dict] = {}
        #: Human-readable lines printed before the result line.
        self.notes: list[str] = []
        #: The traced run's :class:`tracing.Tracer` (spans to write out).
        self.tracer = None

    def op(self, ok: bool, problem: str = "") -> None:
        """Count one attempted operation; a failed one keeps its reason
        (the first few are printed)."""
        self.attempted += 1
        if not ok:
            self.fail(problem)

    def fail(self, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(problem)

    def metric(self, name: str, value: float, unit: str,
               samples: int | None = None) -> None:
        self.metrics[name] = {"value": float(value), "unit": unit}
        extra = "" if samples is None else f"  (n={samples})"
        self.notes.append(f"{name} = {value:.6g} {unit}{extra}")

    def note(self, line: str) -> None:
        self.notes.append(line)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.attempted > 0
