"""``serve-batch``: the serve core without the gateway, cluster or cache.

An in-process ``LocalGateway`` over one ``TaskService`` runs fixed-size
campaigns of jobs over all six servable kernels, with requested ratios
{0.3, 0.5, 0.8, 1.0}.  Every input is distinct, so the result cache only
misses and stores.  Two tenants (premium ``gold``, standard ``silver``)
submit in waves that are drained before the next; the third (free
``bronze``) queues its whole share at the start under an energy budget
of about 60% of what its jobs would cost at their requested ratios.  Its
governor sees all the work it must fit and lowers the served ratio, and
because every bronze job is admitted up front none is refused.

Service-side quality scoring is off; the benchmark scores every output
itself after the timed phase.  Campaigns repeat on a fresh service until
the run's time is used: the service keeps one task group per executed
job, so a fixed campaign length keeps its aging the same on every run.
"""

from __future__ import annotations

import gc
import math
import time

import numpy as np

import layers
from common import (
    PI_TOLERANCE, QUALITY_BOUND, Result, check_counts, check_quality, mean,
    median, percentile, slowness,
)

KERNEL_ARGS = {
    "sobel": {"size": 64},
    "dct": {"size": 64},
    "mc-pi": {"blocks": 16, "samples": 2000},
    "jacobi": {"n": 256, "chunk": 32},
    "kmeans": {"points": 1024},
    "fluidanimate": {"particles": 192},
}
RATIOS = (0.3, 0.5, 0.8, 1.0)
#: Jobs per (tenant, kernel, ratio) in one campaign: 3 x 6 x 4 x 16 = 1152.
PER_COMBO = 16
WAVE_TENANTS = ("gold", "silver")
WAVE = 32           # jobs per wave tenant per wave
#: Bronze's jobs cost 0.488 J (modelled) at their requested ratios on
#: every seed: the analytic task costs depend only on the input sizes.
BRONZE_BUDGET_J = 0.3
TENANTS = (
    "premium:name='gold'",
    "standard:name='silver'",
    f"free:name='bronze',budget_j={BRONZE_BUDGET_J},ratio_floor=0.2,"
    "max_pending=1024",
)
FLOOR = {"gold": 0.7, "silver": 0.3, "bronze": 0.2}


class Inputs:
    """One campaign's jobs: (tenant, kernel, args, ratio), seeded."""

    def __init__(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        seeds = iter(rng.choice(2**31, size=4096, replace=False).tolist())
        self.jobs: dict[str, list[tuple]] = {}
        for tenant in WAVE_TENANTS + ("bronze",):
            jobs = [
                (tenant, kernel, {**args, "seed": next(seeds)}, ratio)
                for kernel, args in KERNEL_ARGS.items()
                for ratio in RATIOS
                for _ in range(PER_COMBO)
            ]
            rng.shuffle(jobs)
            self.jobs[tenant] = jobs
        self.warm_up = [
            ("gold", kernel, {**args, "seed": next(seeds)}, 1.0)
            for kernel, args in KERNEL_ARGS.items()
        ]


class Campaign:
    """One fresh service running one campaign to completion."""

    def __init__(self) -> None:
        self.setup_s = 0.0
        self.wall_s = 0.0         # the campaign, after set-up
        self.span_s = 0.0         # set-up, campaign and close
        self.slowness = 1.0       # host slowness around this campaign
        self.reports: dict[tuple, object] = {}   # (tenant, i) -> JobReport
        self.latency_s: list[float] = []
        self.cache_stats: dict = {}
        self.digest: dict = {}

    def run(self, inputs: Inputs) -> None:
        from repro.config import RuntimeConfig
        from repro.serve import JobRequest, LocalGateway, TaskService

        clock = time.perf_counter
        # The previous campaign's garbage is collected before timing.
        gc.collect()
        before = slowness()
        t0 = clock()
        service = TaskService(
            RuntimeConfig(policy="gtb-max", n_workers=16, tenants=TENANTS),
            compute_quality=False,
        )
        gateway = LocalGateway(service)
        for tenant, kernel, args, ratio in inputs.warm_up:
            gateway.submit(JobRequest(tenant, kernel, args, ratio))
        gateway.drain()
        t1 = clock()
        self.setup_s = t1 - t0

        def submit(tenant: str, i: int) -> str:
            _, kernel, args, ratio = inputs.jobs[tenant][i]
            report = gateway.submit(JobRequest(tenant, kernel, args, ratio))
            self.reports[tenant, i] = report
            return report.job_id

        for i in range(len(inputs.jobs["bronze"])):
            submit("bronze", i)
        tenants = service.tenants
        n_waves = len(inputs.jobs[WAVE_TENANTS[0]]) // WAVE
        for wave in range(n_waves):
            sent = {}
            t_sent = clock()
            for tenant in WAVE_TENANTS:
                for i in range(wave * WAVE, (wave + 1) * WAVE):
                    sent[submit(tenant, i)] = t_sent
            while any(tenants[t].pending for t in WAVE_TENANTS):
                done = service.flush()
                t_done = clock()
                for report in done:
                    if report.job_id in sent:
                        self.latency_s.append(t_done - sent[report.job_id])
        gateway.drain()
        self.cache_stats = service.stats()["cache"]
        run_report = gateway.close()
        t2 = clock()
        self.wall_s = t2 - t1
        self.span_s = t2 - t0
        self.slowness = (before + slowness()) / 2
        self.digest = layers.digest_report(run_report)

    def outcome(self, key):
        report = self.reports[key]
        return (report.code, report.ratio_served, report.accurate,
                report.approximate, report.dropped)


def _drive(inputs: Inputs, seconds: float) -> list[Campaign]:
    campaigns = []
    start = time.perf_counter()
    while not campaigns or time.perf_counter() - start < seconds:
        campaign = Campaign()
        campaign.run(inputs)
        campaigns.append(campaign)
    return campaigns


def _keys(inputs: Inputs) -> list[tuple]:
    return [
        (tenant, i)
        for tenant in ("bronze",) + WAVE_TENANTS
        for i in range(len(inputs.jobs[tenant]))
    ]


def _same_output(a, b) -> bool:
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and np.array_equal(a, b)
    return a == b


def _check(inputs: Inputs, campaigns: list[Campaign], result: Result):
    """Score the first campaign against the references; later campaigns
    must reproduce it exactly (the simulated engine is deterministic).
    Returns (quality per job, ratio deviation per job)."""
    from repro.serve import get_servable

    kernels = {name: get_servable(name) for name in KERNEL_ARGS}
    qualities, deviations = [], []
    first = campaigns[0]
    for key in _keys(inputs):
        tenant, kernel, args, ratio = inputs.jobs[key[0]][key[1]]
        report = first.reports[key]
        problems = []
        if report.code != 200:
            problems.append(f"{kernel} job got code {report.code}")
        else:
            impl = kernels[kernel]
            reference = impl.reference(args)
            quality = impl.quality(reference, report.output)
            if not check_counts(report.accurate, report.approximate,
                                report.dropped, report.tasks_total):
                problems.append(f"{kernel} decision counts do not add up")
            if report.ratio_served < FLOOR[tenant] - 1e-12:
                problems.append(f"{tenant} served below its floor")
            if not check_quality(kernel, quality):
                problems.append(
                    f"{kernel} quality {quality} above "
                    f"{QUALITY_BOUND[kernel]}"
                )
            if report.ratio_served == 1.0 and not _same_output(
                report.output, reference
            ):
                problems.append(f"{kernel} at ratio 1.0 differs from "
                                "the reference")
            if kernel == "mc-pi" and not (
                abs(report.output - math.pi) <= PI_TOLERANCE
            ):
                problems.append(f"mc-pi estimate {report.output}")
            qualities.append(quality)
            deviations.append(
                abs(report.accurate / report.tasks_total
                    - report.ratio_served)
            )
        for later in campaigns[1:]:
            if later.outcome(key) != first.outcome(key) or not (
                _same_output(later.reports[key].output, report.output)
            ):
                problems.append(f"{kernel} job differs between campaigns")
                break
        result.attempted += len(campaigns) - 1
        result.op(not problems, "; ".join(problems))
    return qualities, deviations


def _ok_rates(campaign: Campaign) -> tuple[float, float, float]:
    """Host-adjusted OK jobs/s and tasks/s, and modelled J per OK job,
    of one campaign."""
    ok = [r for r in campaign.reports.values() if r.code == 200]
    tasks = sum(r.tasks_total for r in ok)
    energy = sum(r.energy_j for r in ok)
    wall = campaign.wall_s / campaign.slowness
    return len(ok) / wall, tasks / wall, energy / max(len(ok), 1)


def _latency(campaigns: list[Campaign]) -> list[float]:
    """Host-adjusted latency of every wave job."""
    return [s / c.slowness for c in campaigns for s in c.latency_s]


def run(seed: int, seconds: float, trace: bool) -> Result:
    result = Result()
    inputs = Inputs(seed)
    if not trace:
        campaigns = _drive(inputs, seconds)
        qualities, deviations = _check(inputs, campaigns, result)
        rates = [_ok_rates(c) for c in campaigns]
        latency = _latency(campaigns)
        jobs = sum(len(c.reports) for c in campaigns)
        bronze = [
            r.ratio_served for k, r in campaigns[0].reports.items()
            if k[0] == "bronze"
        ]
        result.note(f"campaigns = {len(campaigns)} x "
                    f"{len(campaigns[0].reports)} jobs; bronze served "
                    f"ratio mean {mean(bronze):.3f} "
                    f"(requested {mean(RATIOS):.3f})")
        factors = [c.slowness for c in campaigns]
        result.note(f"host slowness {median(factors):.3f} "
                    f"({min(factors):.3f}-{max(factors):.3f}); unadjusted "
                    f"{jobs / sum(c.wall_s for c in campaigns):.6g} jobs/s")
        result.metric("setup_s",
                      median([c.setup_s / c.slowness for c in campaigns]),
                      "s", len(campaigns))
        result.metric("jobs_per_s", median([r[0] for r in rates]), "1/s",
                      jobs)
        result.metric("tasks_per_s", median([r[1] for r in rates]), "1/s",
                      len(campaigns))
        result.metric("latency_p50_ms", 1e3 * percentile(latency, 50), "ms",
                      len(latency))
        result.metric("latency_p99_ms", 1e3 * percentile(latency, 99), "ms",
                      len(latency))
        result.metric("energy_mj_per_job", 1e3 * median([r[2] for r in rates]),
                      "mJ_modelled", jobs)
        tasks = sum(r.tasks_total for r in campaigns[0].reports.values())
        energy = sum(r.energy_j for r in campaigns[0].reports.values())
        result.metric("energy_uj_per_task", 1e6 * energy / tasks,
                      "uJ_modelled", tasks)
        result.metric("quality_loss", mean(qualities), "score",
                      len(qualities))
        result.metric("ratio_dev_pct", 100.0 * mean(deviations), "%",
                      len(deviations))
        return result

    from tracing import Tracer, install_program_spans

    plain = _drive(inputs, seconds / 2)
    tracer = Tracer()
    install_program_spans(tracer)
    try:
        traced = _drive(inputs, seconds / 2)
    finally:
        tracer.restore()
    wall_s = sum(c.span_s for c in traced)
    _check(inputs, plain + traced, result)
    values = layers.from_spans(tracer.spans, wall_s)
    values.update(layers.from_run_reports([c.digest for c in traced]))
    stats = {k: sum(c.cache_stats[k] for c in traced)
             for k in ("hits", "degraded_hits", "misses")}
    values.update(layers.cache_metrics(stats))
    reports = [r for c in traced for r in c.reports.values()]
    values["tenants.ratio_served_mean"] = mean(
        [r.ratio_served for r in reports if r.code == 200]
    )
    values["engine.virtual_latency_ms"] = 1e3 * mean(
        [r.latency_s for r in reports if r.code == 200]
    )
    before = [_ok_rates(c) for c in plain]
    after = [_ok_rates(c) for c in traced]
    values["overhead.jobs_per_s"] = (
        median([r[0] for r in after]) - median([r[0] for r in before])
    )
    values["overhead.tasks_per_s"] = (
        median([r[1] for r in after]) - median([r[1] for r in before])
    )
    values["overhead.latency_p50_ms"] = 1e3 * (
        percentile(_latency(traced), 50) - percentile(_latency(plain), 50)
    )
    layers.emit(result, values)
    result.tracer = tracer
    return result
