"""Scenario conformance harness for the serving claims.

Every serving claim this repo makes — streams degrade mid-stream
instead of dropping frames, identical frames replay from cache for
free, anytime jobs refine (the jacobi curve monotonically; for
k-means the last round is no worse than the first, since Lloyd lowers
its objective rather than the distance to the converged centroids)
and stop at the deadline or on an early take,
faults degrade answers without corrupting them, a budgeted tenant is
degraded while its neighbour's latency and quality hold (on one
service and across shards), the cluster scales and its ledger stays in
parity, and the compile tier never changes an answer — is pinned here
as a **scenario**: one registered
generator that runs real traffic through a real service, collects the
job reports into a :class:`~repro.harness.frames.TraceFrame`, and
produces BOTH a human-readable figure and a machine-checked list of
:class:`Check` assertions.

The registry doubles as the conformance suite: ``python -m
repro.harness fig-scenarios`` renders every figure and exits nonzero
if any check fails, and ``tests/serve/test_scenarios.py`` parametrizes
over :data:`SCENARIOS` so pytest runs the same assertions.  Every
scenario runs on the simulated engine (the fault pair on its faulty
wrapper), so all checks are judged on the deterministic virtual
timeline.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..cluster.service import ClusterService
from ..compiler.specialize import clear_profile
from ..config import RuntimeConfig
from ..harness.frames import TraceFrame
from ..runtime.errors import ConfigError
from .server import STREAM_MIN_RATIO, JobRequest, TaskService
from .tenants import TenantSpec

__all__ = [
    "Check",
    "ScenarioReport",
    "SCENARIOS",
    "scenario",
    "run_scenarios",
    "cluster_smoke_jobs",
    "run_cluster_scale",
]

#: Monotonicity slack for quality curves: at convergence consecutive
#: qualities graze machine precision and may wobble at the 1e-7 level.
QUALITY_EPS = 1e-6

#: Cluster-wide energy accounting tolerance (ISSUE acceptance: the
#: ledger's settled figure and the shards' own spent sums agree to 2%).
LEDGER_PARITY = 0.02

#: The deterministic faulty-engine spec the fault scenarios run under.
FAULTY_ENGINE = "faulty:fault_rate=0.1,protect_threshold=0.7,seed=3"

#: Isolation acceptance band: tenant B's shared-run p95 latency and
#: quality must sit within this fraction of its solo run.
ISOLATION_TOLERANCE = 0.05

#: Names of the two band checks both isolation scenarios carry (the
#: ``serve_cluster`` bench probe reads its ``isolated`` bit from them).
ISOLATION_BANDS = (
    "B p95 latency within 5% of solo",
    "B quality within 5% of solo",
)

#: Scaling-run budget of tenant A: large enough that its governor never
#: binds (every run executes the same work at ratio 1.0, so the parity
#: comparison isolates the *accounting*), yet every Joule still flows
#: through the cluster ledger's lease protocol.
SCALE_BUDGET_J = 1e6


@dataclass
class Check:
    """One machine-checked scenario assertion."""

    name: str
    passed: bool
    detail: str = ""

    def render(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        tail = f"  ({self.detail})" if self.detail else ""
        return f"  [{mark}] {self.name}{tail}"


@dataclass
class ScenarioReport:
    """One scenario's outcome: trace frame, figure lines, checks."""

    name: str
    title: str
    frame: TraceFrame
    checks: list[Check] = field(default_factory=list)
    lines: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def render(self) -> str:
        out = [f"== scenario: {self.name} — {self.title} =="]
        out += [f"  {line}" for line in self.lines]
        if len(self.frame):
            out.append("")
            out += [
                f"  {row}"
                for row in self.frame.render(max_rows=8).splitlines()
            ]
        out.append("")
        out += [c.render() for c in self.checks]
        verdict = "CONFORMS" if self.passed else "VIOLATION"
        out.append(f"  => {verdict}")
        return "\n".join(out)


#: name -> generator.  Each generator takes ``(small, n_workers)`` and
#: returns a :class:`ScenarioReport`.
SCENARIOS: dict[str, Callable[..., ScenarioReport]] = {}


def scenario(name: str, title: str):
    """Register one scenario generator (ProjectScylla-style registry:
    the module is the catalogue, the decorator the index)."""

    def wrap(fn: Callable[..., ScenarioReport]):
        if name in SCENARIOS:
            raise ConfigError(f"duplicate scenario {name!r}")
        fn.scenario_name = name
        fn.scenario_title = title
        SCENARIOS[name] = fn
        return fn

    return wrap


def run_scenarios(
    names: list[str] | None = None,
    *,
    small: bool = True,
    n_workers: int = 8,
) -> list[ScenarioReport]:
    """Run the selected scenarios (all by default), in registry order."""
    todo = list(SCENARIOS) if not names else list(names)
    unknown = [n for n in todo if n not in SCENARIOS]
    if unknown:
        raise ConfigError(
            f"unknown scenario(s) {unknown}; have {list(SCENARIOS)}"
        )
    return [
        SCENARIOS[name](small=small, n_workers=n_workers)
        for name in todo
    ]


def _config(n_workers: int, **fields) -> RuntimeConfig:
    return RuntimeConfig(policy="gtb-max", n_workers=n_workers, **fields)


# ----------------------------------------------------------------------
# Streaming shapes
# ----------------------------------------------------------------------
@scenario(
    "streaming-degrade",
    "budget pressure degrades frame ratio mid-stream, drops nothing",
)
def scenario_streaming_degrade(
    *, small: bool = True, n_workers: int = 8
) -> ScenarioReport:
    n_frames = 8 if small else 24
    spec = TenantSpec(name="cam", tier="free", budget_j=1e-6)
    with TaskService(_config(n_workers), tenants=[spec]) as svc:
        reports = []
        for i in range(n_frames):
            reports.append(
                svc.submit(
                    JobRequest(
                        tenant="cam",
                        kernel="sobel",
                        args={"size": 24, "seed": 100 + i},
                        stream="cam0",
                        ratio=0.9,
                    )
                )
            )
            svc.flush()
        summary = svc.stats()["streams"]["cam/cam0"]
    frame = TraceFrame.from_reports(reports)
    degraded = frame.filter(
        lambda r: r["ratio_served"] is not None
        and r["ratio_served"] <= STREAM_MIN_RATIO + 1e-9
    )
    checks = [
        Check(
            "every frame answered 200",
            all(r.ok for r in reports),
            str(frame.value_counts("status")),
        ),
        Check(
            "frame order preserved",
            frame.col("frame") == list(range(n_frames)),
        ),
        Check(
            "budget pressure degraded ratio mid-stream",
            len(degraded) > 0 and summary["degraded"] > 0,
            f"{summary['degraded']}/{n_frames} frames degraded",
        ),
        Check(
            "no frame dropped or rejected",
            summary["rejected"] == 0
            and all(r.status != "rejected-budget" for r in reports),
        ),
        Check(
            "served ratio never below the stream minimum",
            frame.min("ratio_served") >= STREAM_MIN_RATIO - 1e-9,
            f"min served ratio {frame.min('ratio_served'):.3f}",
        ),
    ]
    return ScenarioReport(
        name="streaming-degrade",
        title="budget pressure degrades frame ratio mid-stream",
        frame=frame,
        checks=checks,
        lines=[
            f"{n_frames} ordered sobel frames, free tenant with a "
            f"{spec.budget_j:g} J budget",
            f"mean served ratio {frame.mean('ratio_served'):.3f}, "
            f"stream counters {summary}",
        ],
    )


@scenario(
    "streaming-cache-replay",
    "identical re-submitted frames replay from cache at zero energy",
)
def scenario_streaming_cache_replay(
    *, small: bool = True, n_workers: int = 8
) -> ScenarioReport:
    with TaskService(
        _config(n_workers), tenants=("premium:name='p'",)
    ) as svc:
        args = {"size": 24, "seed": 7}
        first = svc.submit(
            JobRequest(
                tenant="p", kernel="sobel", args=args,
                stream="cam0", ratio=0.5,
            )
        )
        svc.flush()
        replay = svc.submit(
            JobRequest(
                tenant="p", kernel="sobel", args=args,
                stream="cam0", ratio=0.5,
            )
        )
        summary = svc.stats()["streams"]["p/cam0"]
    frame = TraceFrame.from_reports([first, replay])
    checks = [
        Check(
            "first submission executed",
            first.status == "executed",
            first.status,
        ),
        Check(
            "floor above request still served (regression)",
            first.ratio_served is not None
            and first.ratio_served >= 0.7 - 1e-9,
            f"served {first.ratio_served}",
        ),
        Check(
            "identical frame replayed from cache",
            replay.served_from_cache,
            replay.status,
        ),
        Check(
            "replay cost zero energy",
            replay.energy_j == 0.0,
            f"{replay.energy_j} J",
        ),
        Check(
            "replay advanced the frame lane",
            summary["next_frame"] == 2,
            f"next_frame {summary['next_frame']}",
        ),
    ]
    return ScenarioReport(
        name="streaming-cache-replay",
        title="identical frames replay from cache",
        frame=frame,
        checks=checks,
        lines=[
            "same sobel frame submitted twice on a premium stream "
            "(ratio floor 0.7 > requested 0.5)",
        ],
    )


# ----------------------------------------------------------------------
# Anytime shapes
# ----------------------------------------------------------------------
@scenario(
    "anytime-jacobi",
    "iterative jacobi refines monotonically, client takes at deadline",
)
def scenario_anytime_jacobi(
    *, small: bool = True, n_workers: int = 8
) -> ScenarioReport:
    rounds = 8 if small else 16
    args = {"n": 64 if small else 256, "chunk": 8, "seed": 3}
    with TaskService(
        _config(n_workers), tenants=("premium:name='lab'",)
    ) as svc:
        full = svc.submit_anytime(
            JobRequest(
                tenant="lab", kernel="jacobi", args=args,
                ratio=1.0, rounds=rounds,
            )
        )
        capped = svc.submit_anytime(
            JobRequest(
                tenant="lab",
                kernel="jacobi",
                args={**args, "seed": 4},
                rounds=rounds,
                deadline_s=1e-9,
                job_id="deadline",
            )
        )
    q = full.round_quality
    frame = TraceFrame.from_records(
        [
            {"round": i, "quality": qi, "job": "full"}
            for i, qi in enumerate(q)
        ]
        + [
            {"round": i, "quality": qi, "job": "deadline"}
            for i, qi in enumerate(capped.round_quality)
        ]
    )
    checks = [
        Check(
            "all rounds ran",
            full.rounds_run == rounds,
            f"{full.rounds_run}/{rounds}",
        ),
        Check(
            "quality improves monotonically (eps)",
            all(
                q[i + 1] <= q[i] + QUALITY_EPS
                for i in range(len(q) - 1)
            ),
            f"curve {[round(v, 6) for v in q]}",
        ),
        Check(
            "at least 10x refinement over the run",
            q[0] > 0 and q[-1] < q[0] / 10,
            f"{q[0]:.3g} -> {q[-1]:.3g}",
        ),
        Check(
            "deadline takes the current answer early",
            capped.status == "executed"
            and capped.rounds_run < rounds
            and "deadline" in capped.detail,
            capped.detail,
        ),
    ]
    return ScenarioReport(
        name="anytime-jacobi",
        title="jacobi anytime refinement",
        frame=frame,
        checks=checks,
        lines=[
            f"jacobi n={args['n']}, {rounds} rounds; a second job "
            "with a 1 ns deadline",
        ],
    )


@scenario(
    "anytime-kmeans",
    "iterative kmeans improves per round, early take stops the loop",
)
def scenario_anytime_kmeans(
    *, small: bool = True, n_workers: int = 8
) -> ScenarioReport:
    rounds = 8 if small else 16
    args = {
        "points": 256 if small else 1024,
        "k": 4,
        "chunk": 64,
        "seed": 5,
    }
    taken = []
    with TaskService(
        _config(n_workers), tenants=("premium:name='lab'",)
    ) as svc:
        full = svc.submit_anytime(
            JobRequest(
                tenant="lab", kernel="kmeans", args=args,
                ratio=1.0, rounds=rounds,
            )
        )
        early = svc.submit_anytime(
            JobRequest(
                tenant="lab",
                kernel="kmeans",
                args={**args, "seed": 6},
                rounds=rounds,
                job_id="early",
            ),
            on_round=lambda rr: taken.append(rr.round) or rr.round < 2,
        )
    q = full.round_quality
    frame = TraceFrame.from_records(
        {"round": i, "quality": qi} for i, qi in enumerate(q)
    )
    checks = [
        Check(
            "first round is not already converged",
            q[0] > 0,
            f"q0 {q[0]:.3g}",
        ),
        Check(
            "final quality at least as good as the first",
            q[-1] <= q[0] + QUALITY_EPS,
            f"{q[0]:.3g} -> {q[-1]:.3g}",
        ),
        Check(
            "early take stops after the callback says so",
            early.rounds_run == 3 and "early take" in early.detail,
            early.detail,
        ),
        Check(
            "callback saw every executed round",
            taken == [0, 1, 2],
            str(taken),
        ),
    ]
    return ScenarioReport(
        name="anytime-kmeans",
        title="kmeans anytime refinement",
        frame=frame,
        checks=checks,
        lines=[
            f"kmeans points={args['points']}, {rounds} rounds; a "
            "second job early-taken after round 3",
        ],
    )


# ----------------------------------------------------------------------
# Faults under load
# ----------------------------------------------------------------------
def _degraded_not_wrong_checks(reports, frame: TraceFrame) -> list[Check]:
    """The shared fault-scenario contract: shed or degrade, never
    corrupt, never error."""
    import math

    pi_jobs = [
        r for r in reports
        if r.kernel == "mc-pi" and r.status == "executed"
        and isinstance(r.output, float)
    ]
    qualities = [
        r.quality for r in reports if r.quality is not None
    ]
    return [
        Check(
            "no 5xx/4xx beyond load shedding",
            all(r.code in (200, 429) for r in reports),
            str(frame.value_counts("code")),
        ),
        Check(
            "executed mc-pi answers stay near pi",
            all(
                math.isfinite(r.output)
                and abs(r.output - math.pi) < 0.8
                for r in pi_jobs
            ),
            f"{len(pi_jobs)} mc-pi jobs",
        ),
        Check(
            "quality bounded (degraded, not wrong)",
            all(0.0 <= v < 1.0 for v in qualities),
            f"max quality {max(qualities):.3g}"
            if qualities
            else "no scored jobs",
        ),
    ]


@scenario(
    "faults-under-serve",
    "omission faults under serve load degrade answers, never corrupt",
)
def scenario_faults_under_serve(
    *, small: bool = True, n_workers: int = 8
) -> ScenarioReport:
    n_jobs = 24 if small else 96
    with TaskService(
        _config(n_workers, engine=FAULTY_ENGINE),
        tenants=(
            "standard:name='acme'",
            "free:name='hobby',budget_j=0.002",
        ),
    ) as svc:
        reports = []
        for i in range(n_jobs):
            tenant = "acme" if i % 2 == 0 else "hobby"
            if i % 3 == 0:
                kernel, args = "mc-pi", {
                    "blocks": 6, "samples": 300, "seed": i % 5,
                }
            else:
                kernel, args = "sobel", {"size": 24, "seed": i % 7}
            reports.append(
                svc.submit(
                    JobRequest(
                        tenant=tenant, kernel=kernel, args=args,
                        ratio=0.8, job_id=f"j{i}",
                    )
                )
            )
            if i % 4 == 3:
                svc.flush()
        svc.flush()
        faults = len(svc.scheduler.engine.fault_log.records)
        floors = {
            name: state.spec.ratio_floor
            for name, state in svc.tenants.items()
        }
    frame = TraceFrame.from_reports(reports)
    served = frame.filter(lambda r: r["code"] == 200)
    checks = _degraded_not_wrong_checks(reports, frame) + [
        Check("faults actually fired", faults > 0, f"{faults} faults"),
        Check(
            "ratio floors held under faults",
            all(
                r.ratio_served is None
                or r.ratio_served >= floors[r.tenant] - 1e-9
                for r in reports
            ),
        ),
        Check(
            "most jobs still served",
            len(served) >= n_jobs // 2,
            f"{len(served)}/{n_jobs} served",
        ),
    ]
    return ScenarioReport(
        name="faults-under-serve",
        title="faults under serve load",
        frame=frame,
        checks=checks,
        lines=[
            f"{n_jobs} mixed jobs on the {FAULTY_ENGINE!r} engine",
            f"{faults} injected faults; outcomes "
            f"{frame.value_counts('status')}",
        ],
    )


@scenario(
    "faults-under-cluster",
    "faulty shards stay degraded-not-wrong with ledger parity <= 2%",
)
def scenario_faults_under_cluster(
    *, small: bool = True, n_workers: int = 8
) -> ScenarioReport:
    n_jobs = 24 if small else 96
    budget_j = 0.004
    svc = ClusterService(
        _config(n_workers, engine=FAULTY_ENGINE),
        tenants=[
            TenantSpec(name="acme", tier="standard"),
            TenantSpec(
                name="hobby", tier="free", budget_j=budget_j
            ),
        ],
        cluster=3,
    )
    try:
        reports = []
        for i in range(n_jobs):
            tenant = "acme" if i % 2 == 0 else "hobby"
            if i % 3 == 0:
                kernel, args = "mc-pi", {
                    "blocks": 6, "samples": 300, "seed": i % 5,
                }
            else:
                kernel, args = "sobel", {"size": 24, "seed": i % 7}
            reports.append(
                svc.submit(
                    JobRequest(
                        tenant=tenant, kernel=kernel, args=args,
                        ratio=0.8, job_id=f"j{i}",
                    )
                )
            )
            if i % 4 == 3:
                svc.flush()
        svc.flush()
        faults = sum(
            len(w.service.scheduler.engine.fault_log.records)
            for w in svc.shards
        )
        summary = svc.tenant_summary("hobby")
    finally:
        svc.close()
    frame = TraceFrame.from_reports(reports)
    spent = summary["spent_j"]
    settled = summary["ledger_settled_j"]
    parity = (
        abs(spent - settled) / max(spent, settled)
        if max(spent, settled) > 0
        else 0.0
    )
    checks = _degraded_not_wrong_checks(reports, frame) + [
        Check(
            "faults fired across shards", faults > 0, f"{faults} faults"
        ),
        Check(
            "ledger parity within tolerance",
            parity <= LEDGER_PARITY,
            f"shards {spent:.3g} J vs ledger {settled:.3g} J "
            f"({parity:.2%})",
        ),
        Check(
            "cluster budget never overspent unboundedly",
            spent <= budget_j * 1.5,
            f"{spent:.3g} J of {budget_j:g} J",
        ),
    ]
    return ScenarioReport(
        name="faults-under-cluster",
        title="faults under cluster load",
        frame=frame,
        checks=checks,
        lines=[
            f"{n_jobs} mixed jobs across 3 faulty shards",
            f"hobby: spent {spent:.3g} J, ledger {settled:.3g} J, "
            f"parity {parity:.2%}",
        ],
    )


# ----------------------------------------------------------------------
# Tenant isolation
# ----------------------------------------------------------------------
def _isolation(make_service, *, small: bool, n_workers: int) -> dict:
    """The two-tenant isolation run behind ``serve-isolation`` and
    ``cluster-isolation``.

    Tenant A (droppable Monte-Carlo batches) is priced solo and
    accurate on a :class:`TaskService`, then budgeted at 60 % of that
    price; tenant B (accurate Sobel, latency-sensitive, unmetered) runs
    solo and then shared with A, both on the service
    ``make_service(tenants)`` builds.  A's whole batch queues up front,
    B streams two jobs per round.  Returns the per-stream frame, the
    two :data:`ISOLATION_BANDS` checks, common figure lines and the raw
    reports and Joule figures the scenarios add their own checks on.
    """
    waves = 10 if small else 20

    def a_job(w: int) -> JobRequest:
        return JobRequest(
            tenant="a", kernel="mc-pi",
            args={
                "blocks": 8, "samples": 1000 if small else 4000,
                "seed": 2015 + w,
            },
        )

    def b_job(w: int, j: int) -> JobRequest:
        # Distinct seeds: B's traffic never repeats, so its latency is
        # never a cache artifact.
        return JobRequest(
            tenant="b", kernel="sobel",
            args={"size": 128 if small else 256, "seed": 1000 + 17 * w + j},
        )

    def run(make, tenants: tuple, a_waves: int, b_waves: int):
        with make(tenants) as svc:
            a = [svc.submit(a_job(w)) for w in range(a_waves)]
            b = []
            for w in range(b_waves):
                b += [svc.submit(b_job(w, j)) for j in range(2)]
                svc.flush()
            while svc.pending_jobs:
                svc.flush()
            return a, b, svc.stats()["tenants"]

    def solo_service(tenants: tuple) -> TaskService:
        return TaskService(_config(n_workers), tenants=tenants, max_batch=4)

    *_, solo = run(solo_service, ("standard:name='a'",), waves, 0)
    a_solo_j = solo["a"]["spent_j"]
    budget_j = 0.6 * a_solo_j
    _, b_solo, _ = run(make_service, ("premium:name='b'",), 0, waves)
    a, b_shared, tenants = run(
        make_service,
        (
            f"standard:name='a',budget_j={budget_j},max_pending=4096",
            "premium:name='b'",
        ),
        waves,
        waves,
    )

    streams = {
        "A shared": TraceFrame.from_reports(a),
        "B solo": TraceFrame.from_reports(b_solo),
        "B shared": TraceFrame.from_reports(b_shared),
    }
    frame = TraceFrame.from_records(
        {
            "stream": name,
            "jobs": len(f),
            "mean_ratio": f.mean("ratio_served"),
            "mean_quality": f.mean("quality"),
            "p95_latency_s": f.percentile("latency_s", 0.95),
        }
        for name, f in streams.items()
    )
    p95 = dict(zip(frame.col("stream"), frame.col("p95_latency_s")))
    p95_delta = (p95["B shared"] - p95["B solo"]) / p95["B solo"]
    quality = dict(zip(frame.col("stream"), frame.col("mean_quality")))
    quality_delta = abs(quality["B shared"] - quality["B solo"])
    return {
        "frame": frame,
        "checks": [
            Check(
                ISOLATION_BANDS[0],
                abs(p95_delta) <= ISOLATION_TOLERANCE,
                f"{p95_delta:+.2%}",
            ),
            Check(
                ISOLATION_BANDS[1],
                quality_delta <= ISOLATION_TOLERANCE,
                f"delta {quality_delta:.4g}",
            ),
        ],
        "lines": [
            f"A: {waves} mc-pi batches queued up front, budget "
            f"{budget_j:.4g} J = 60% of its {a_solo_j:.4g} J solo price; "
            f"B: {2 * waves} distinct sobel jobs, 2 per round",
            f"A outcomes {streams['A shared'].value_counts('status')}",
        ],
        "b_solo": b_solo,
        "b_shared": b_shared,
        "a_ratio": streams["A shared"].mean("ratio_served"),
        "a_solo_j": a_solo_j,
        "budget_j": budget_j,
        "a_spent_j": tenants["a"]["spent_j"],
    }


@scenario(
    "serve-isolation",
    "a budgeted tenant is degraded, its neighbour's p95 and quality hold",
)
def scenario_serve_isolation(
    *, small: bool = True, n_workers: int = 8
) -> ScenarioReport:
    iso = _isolation(
        lambda tenants: TaskService(
            _config(n_workers), tenants=tenants, max_batch=4
        ),
        small=small,
        n_workers=n_workers,
    )
    ratio = iso["a_ratio"]
    spent, budget, solo = iso["a_spent_j"], iso["budget_j"], iso["a_solo_j"]
    checks = iso["checks"] + [
        Check(
            "B runs accurate: shared quality exactly the reference",
            all(r.quality == 0.0 for r in iso["b_shared"]),
        ),
        Check(
            "every B job executed (no cache artifact)",
            all(
                r.status == "executed"
                for r in iso["b_solo"] + iso["b_shared"]
            ),
        ),
        Check(
            "A degraded under budget: mean served ratio in (0, 0.95)",
            0.0 < ratio < 0.95,
            f"mean ratio {ratio:.3f}",
        ),
        Check(
            "A spent <= 1.15x budget and < 0.75x its solo price",
            spent <= budget * 1.15 and spent < solo * 0.75,
            f"{spent:.4g} J of {budget:.4g} J budget, "
            f"{solo:.4g} J solo",
        ),
    ]
    return ScenarioReport(
        name="serve-isolation",
        title="two tenants on one service",
        frame=iso["frame"],
        checks=checks,
        lines=iso["lines"],
    )


@scenario(
    "cluster-isolation",
    "the two-tenant isolation band holds across 4 shards",
)
def scenario_cluster_isolation(
    *, small: bool = True, n_workers: int = 8
) -> ScenarioReport:
    iso = _isolation(
        lambda tenants: ClusterService(
            _config(n_workers), tenants=tenants, cluster=4, max_batch=4
        ),
        small=small,
        n_workers=n_workers,
    )
    ratio = iso["a_ratio"]
    spent, budget, solo = iso["a_spent_j"], iso["budget_j"], iso["a_solo_j"]
    checks = iso["checks"] + [
        Check(
            "A served at mean ratio in (0, 1]",
            0.0 < ratio <= 1.0,
            f"mean ratio {ratio:.3f}",
        ),
        Check(
            "A's budget below its solo price",
            budget < solo,
            f"{budget:.4g} J < {solo:.4g} J",
        ),
    ]
    return ScenarioReport(
        name="cluster-isolation",
        title="two tenants across 4 shards",
        frame=iso["frame"],
        checks=checks,
        lines=iso["lines"]
        + [
            # Not gated: A's queue runs in about one round across the
            # shards, before its governor can act on the spend.
            f"A spent {spent:.4g} J against its {budget:.4g} J budget "
            f"({spent / budget:.2f}x)",
        ],
    )


# ----------------------------------------------------------------------
# Cluster scaling and ledger parity
# ----------------------------------------------------------------------
def cluster_smoke_jobs(
    waves: int, *, small: bool = False
) -> list[JobRequest]:
    """The smoke workload: ``2 * waves`` distinct-seed jobs from two
    tenants (A: droppable Monte-Carlo batches, B: accurate Sobel)."""
    samples, size = (600, 64) if small else (1200, 96)
    return [
        job
        for w in range(waves)
        for job in (
            JobRequest(
                tenant="a", kernel="mc-pi",
                args={"blocks": 8, "samples": samples, "seed": 5000 + w},
            ),
            JobRequest(
                tenant="b", kernel="sobel",
                args={"size": size, "seed": 7000 + w},
            ),
        )
    ]


def run_cluster_scale(
    shards: int,
    waves: int,
    *,
    n_workers: int = 8,
    small: bool = False,
) -> dict:
    """One scaling run: the smoke workload on ``shards`` shards.

    Returns the cluster makespan (slowest shard's engine clock, virtual
    seconds), jobs served, tenant A's ledger-settled lifetime spend and
    the per-shard job spread.
    """
    jobs = cluster_smoke_jobs(waves, small=small)
    service = ClusterService(
        _config(n_workers),
        tenants=(
            f"standard:name='a',budget_j={SCALE_BUDGET_J},max_pending=4096",
            "premium:name='b',max_pending=4096",
        ),
        cluster=shards,
        max_batch=8,
        compute_quality=False,
    )
    with service:
        reports = [service.submit(job) for job in jobs]
        while service.pending_jobs:
            service.flush()
        makespan = service.makespan_s
        spread = {
            w.index: w.service.tenants["a"].executed
            + w.service.tenants["b"].executed
            for w in service.shards
        }
    return {
        "shards": shards,
        "jobs": len(jobs),
        "ok": sum(1 for r in reports if r.ok),
        "makespan_s": makespan,
        "jobs_per_s": len(jobs) / makespan if makespan else 0.0,
        "a_spent_j": service.ledger.spent_j("a"),
        "spread": spread,
    }


@scenario(
    "cluster-scale",
    ">=3x jobs/s at 4 shards, >=5x at 8, ledger parity <= 2%",
)
def scenario_cluster_scale(
    *, small: bool = True, n_workers: int = 8
) -> ScenarioReport:
    waves = 80 if small else 120
    runs = [
        run_cluster_scale(shards, waves, n_workers=n_workers, small=small)
        for shards in (1, 4, 8)
    ]
    base = runs[0]
    frame = TraceFrame.from_records(
        {
            **{k: v for k, v in run.items() if k != "spread"},
            "speedup": base["makespan_s"] / run["makespan_s"],
            "min_shard_jobs": min(run["spread"].values()),
            "parity_dev": abs(run["a_spent_j"] - base["a_spent_j"])
            / base["a_spent_j"],
        }
        for run in runs
    )
    speedup = dict(zip(frame.col("shards"), frame.col("speedup")))
    parity = frame.max("parity_dev")
    checks = [
        Check(
            ">=3x jobs/s at 4 shards",
            speedup[4] >= 3.0,
            f"{speedup[4]:.2f}x",
        ),
        Check(
            ">=5x jobs/s at 8 shards",
            speedup[8] >= 5.0,
            f"{speedup[8]:.2f}x",
        ),
        Check(
            "every job served at every width",
            frame.col("ok") == frame.col("jobs"),
        ),
        Check("every shard got work", frame.min("min_shard_jobs") > 0),
        Check(
            "A's ledger spend within 2% of the 1-shard figure",
            parity <= LEDGER_PARITY,
            f"worst deviation {parity:.3%}",
        ),
    ]
    return ScenarioReport(
        name="cluster-scale",
        title="cluster scaling and ledger parity",
        frame=frame,
        checks=checks,
        lines=[
            f"smoke workload ({2 * waves} jobs) on 1, 4 and 8 shards, "
            f"{n_workers} workers/shard, virtual-time makespans",
        ],
    )


# ----------------------------------------------------------------------
# Compile tier
# ----------------------------------------------------------------------
def _compile_stream(
    kernel: str, args: dict, n_jobs: int, spec: str, n_workers: int
) -> tuple[list, float, TaskService]:
    """Serve one kernel's job stream; returns (reports, wall_s, svc)."""
    svc = TaskService(
        _config(n_workers, compile=spec), compute_quality=False
    )
    reports = []
    t0 = time.perf_counter()
    with svc:
        for j in range(n_jobs):
            # Distinct seeds: measure serving, not the result cache.
            reports.append(
                svc.submit(
                    JobRequest(
                        tenant="standard",
                        kernel=kernel,
                        args={**args, "seed": j},
                        ratio=0.7,
                    )
                )
            )
            svc.flush()
    return reports, time.perf_counter() - t0, svc


def _same_answer(a, b) -> bool:
    """Outputs (arrays or scalars) and admission counters identical."""
    return bool(np.array_equal(a.output, b.output)) and (
        a.tasks_total, a.accurate, a.approximate, a.dropped
    ) == (b.tasks_total, b.accurate, b.approximate, b.dropped)


@scenario(
    "compile-parity",
    "compile=specialize serves bit-identical answers to compile=off",
)
def scenario_compile_parity(
    *, small: bool = True, n_workers: int = 8
) -> ScenarioReport:
    n_jobs = 6 if small else 12
    size = 64 if small else 128
    kernels = {
        "sobel": {"size": size},
        "dct": {"size": size},
        "mc-pi": {"blocks": 16, "samples": 500 if small else 2000},
    }
    rows, checks = [], []
    for kernel, args in kernels.items():
        off, off_wall, _ = _compile_stream(
            kernel, args, n_jobs, "off", n_workers
        )
        on, on_wall, svc = _compile_stream(
            kernel, args, n_jobs, "specialize", n_workers
        )
        same = all(_same_answer(a, b) for a, b in zip(off, on))
        rows.append(
            {
                "kernel": kernel,
                "jobs_per_s_off": n_jobs / max(off_wall, 1e-12),
                "jobs_per_s_on": n_jobs / max(on_wall, 1e-12),
                "speedup": off_wall / max(on_wall, 1e-12),
                "logical_tasks": sum(r.tasks_total for r in on),
                "chunk_tasks": sum(
                    meta.get("n_chunks", 0)
                    for meta in svc.job_meta.values()
                ),
                "parity": same,
            }
        )
        checks.append(
            Check(
                f"{kernel}: outputs and admission counters identical",
                same,
                f"{n_jobs} jobs",
            )
        )
    cache = svc._specializer.stats()

    # One profiled sobel stream for the per-callee timing lines.
    clear_profile()
    _, _, prof = _compile_stream(
        "sobel", kernels["sobel"], 2, "specialize:profile=true", n_workers
    )
    profile: dict[str, list] = {}
    for meta in prof.job_meta.values():
        for callee, rec in meta.get("profile", {}).items():
            agg = profile.setdefault(callee, [0, 0.0])
            agg[0] += rec["calls"]
            agg[1] += rec["total_s"]
    return ScenarioReport(
        name="compile-parity",
        title="specialized vs interpreted serving",
        frame=TraceFrame.from_records(rows),
        checks=checks,
        lines=[
            f"{n_jobs} jobs per kernel, compile=specialize vs off "
            "(wall-clock jobs/s and speedups are not gated)",
            f"compiled-body cache: {cache.get('compiles', 0)} compiles, "
            f"{cache.get('hits', 0)} hits",
            "shallow profiler (specialize:profile=true):",
        ]
        + [
            f"  {callee}: {calls} calls, {total * 1e3:.3f} ms, "
            f"{total / calls * 1e6:.2f} us mean"
            for callee, (calls, total) in sorted(profile.items())
            if calls
        ],
    )
