"""Per-layer metrics of a traced run.

Every workload prints every metric below; a layer the workload bypasses
reads 0 (no calls reached it), which is the prediction the workload's
``why`` records.  Times are host wall-clock.  ``virtual_`` values come
from the simulated engine's own clock and are never rates.
"""

from __future__ import annotations

from collections import defaultdict

from common import mean
from tracing import (
    ID, LAYER, LAYERS, META, NAME, T0, T1, THREAD,
    layer_self_seconds, mean_duration, outermost, parents, self_times,
)

#: name -> unit, in the order BENCHMARK.json lists them.
UNITS = {
    "gateway.ingress_ms": "ms",
    "gateway.window_wait_ms": "ms",
    "gateway.egress_ms": "ms",
    "gateway.jobs_per_round": "count",
    "cluster.route_ms": "ms",
    "cluster.flush_overhead_ms": "ms",
    "cluster.shard_balance": "ratio",
    "serve.submit_us": "us",
    "serve.flush_ms": "ms",
    "serve.flush_self_ms": "ms",
    "serve.flush_ms_first_decile": "ms",
    "serve.flush_ms_last_decile": "ms",
    "serve.anytime_ms": "ms",
    "cache.lookups": "count",
    "cache.hit_ratio": "ratio",
    "cache.get_us": "us",
    "cache.put_us": "us",
    "kernels.plan_ms": "ms",
    "kernels.combine_ms": "ms",
    "kernels.reference_ms": "ms",
    "kernels.quality_ms": "ms",
    "kernels.body_ms": "ms",
    "tenants.steer_us": "us",
    "tenants.ratio_served_mean": "ratio",
    "scheduler.spawn_us_per_task": "us",
    "scheduler.taskwait_ms": "ms",
    "policy.ratio_dev_pct": "%",
    "policy.inversion_pct": "%",
    "policy.accurate": "count",
    "policy.approximate": "count",
    "policy.dropped": "count",
    "engine.dispatch_us_per_task": "us",
    "engine.steals": "count",
    "engine.failed_steals": "count",
    "engine.virtual_latency_ms": "virtual_ms",
    "engine.virtual_makespan_s": "virtual_s",
    **{f"self_pct.{layer}": "%" for layer in LAYERS},
    "trace.layer_cover_pct": "%",
    "overhead.jobs_per_s": "1/s",
    "overhead.tasks_per_s": "1/s",
    "overhead.latency_p50_ms": "ms",
}


def from_spans(spans: list[tuple], wall_s: float) -> dict[str, float]:
    """Every span-derived metric (``wall_s``: the traced phase)."""
    parent = parents(spans)
    own = self_times(spans, parent)
    layer_of = {r[ID]: r[LAYER] for r in spans}
    index: dict[tuple, list] = defaultdict(list)
    for r in spans:
        index[r[LAYER], r[NAME]].append(r)

    def calls(layer: str, name: str) -> list[tuple]:
        return outermost(index[layer, name], parent, layer_of)

    out: dict[str, float] = {}

    # Gateway: join each request's dispatch, cluster call and round.
    dispatch = {r[META]: r for r in index["gateway", "dispatch"]}
    entry = {
        r[META]: r
        for name in ("submit", "submit_anytime")
        for r in index["cluster", name]
    }
    flushes = index["cluster", "flush"]
    round_of = {job: r for r in flushes for job in (r[META] or ())}
    ingress, wait, egress = [], [], []
    for job, d in dispatch.items():
        c = entry.get(job)
        if c is None:
            continue
        ingress.append(c[T0] - d[T0])
        f = round_of.get(job)
        if f is not None:
            wait.append(f[T0] - c[T1])
        egress.append(d[T1] - (f[T1] if f is not None else c[T1]))
    out["gateway.ingress_ms"] = 1e3 * mean(ingress)
    out["gateway.window_wait_ms"] = 1e3 * mean(wait)
    out["gateway.egress_ms"] = 1e3 * mean(egress)
    out["gateway.jobs_per_round"] = mean(
        [len(r[META]) for r in flushes if r[META]]
    )

    # Cluster: what routing and the fan-out add around the shards.
    out["cluster.route_ms"] = 1e3 * mean(
        [own[r[ID]] for r in entry.values()]
    )
    out["cluster.flush_overhead_ms"] = 1e3 * mean(
        [own[r[ID]] for r in flushes]
    )
    per_shard: dict[int, int] = defaultdict(int)
    if flushes:
        for r in calls("serve", "submit"):
            per_shard[r[THREAD]] += 1
    out["cluster.shard_balance"] = (
        min(per_shard.values()) / max(per_shard.values())
        if len(per_shard) > 1 else 0.0
    )

    # Serve core.
    out["serve.submit_us"] = 1e6 * mean_duration(
        calls("serve", "submit")
    )
    serve_flushes = index["serve", "flush"]
    out["serve.flush_ms"] = 1e3 * mean_duration(serve_flushes)
    out["serve.flush_self_ms"] = 1e3 * mean(
        [own[r[ID]] for r in serve_flushes]
    )
    first, last = _deciles(serve_flushes)
    out["serve.flush_ms_first_decile"] = 1e3 * mean_duration(first)
    out["serve.flush_ms_last_decile"] = 1e3 * mean_duration(last)
    out["serve.anytime_ms"] = 1e3 * mean_duration(
        calls("serve", "submit_anytime")
    )

    out["cache.get_us"] = 1e6 * mean_duration(calls("cache", "get"))
    out["cache.put_us"] = 1e6 * mean_duration(calls("cache", "put"))

    for name in ("plan", "combine", "reference", "quality", "body"):
        out[f"kernels.{name}_ms"] = 1e3 * mean_duration(
            calls("kernels", name)
        )
    out["tenants.steer_us"] = 1e6 * mean_duration(
        calls("tenants", "steer")
    )

    spawns = calls("scheduler", "spawn") + calls("scheduler", "spawn_many")
    n_tasks = sum(1 if r[META] is None else r[META] for r in spawns)
    waits = calls("scheduler", "taskwait")
    bodies = calls("kernels", "body")
    out["scheduler.spawn_us_per_task"] = (
        1e6 * sum(r[T1] - r[T0] for r in spawns) / n_tasks if n_tasks else 0.0
    )
    out["scheduler.taskwait_ms"] = 1e3 * mean_duration(waits)
    out["engine.dispatch_us_per_task"] = (
        1e6 * (
            sum(r[T1] - r[T0] for r in waits)
            - sum(r[T1] - r[T0] for r in bodies)
        ) / n_tasks
        if n_tasks else 0.0
    )

    layer_self = layer_self_seconds(spans, own)
    for layer in LAYERS:
        out[f"self_pct.{layer}"] = 100.0 * layer_self[layer] / wall_s
    out["trace.layer_cover_pct"] = 100.0 * sum(layer_self.values()) / wall_s
    return out


def _deciles(flushes: list[tuple]) -> tuple[list, list]:
    """First and last tenth of each service's flush rounds (services
    age over a campaign, so both are taken per service instance)."""
    by_service: dict = defaultdict(list)
    for r in flushes:
        by_service[r[META]].append(r)
    first, last = [], []
    for rounds in by_service.values():
        rounds.sort(key=lambda r: r[T0])
        k = max(1, len(rounds) // 10)
        first.extend(rounds[:k])
        last.extend(rounds[-k:])
    return first, last


def digest_report(report) -> dict:
    """The few numbers :func:`from_run_reports` needs from a RunReport
    (kept instead of the report, whose trace holds every task)."""
    from repro.runtime.task import ExecutionKind

    groups = [g for g in report.groups.values() if g.spawned]
    kinds = report.tasks_by_kind
    return {
        "energy_j": report.energy_j,
        "makespan_s": report.makespan_s,
        "offsets": [g.ratio_offset for g in groups],
        "inversions": sum(
            g.inversion_pct * (g.accurate + g.approximate + g.dropped) / 100
            for g in groups
        ),
        "accurate": kinds.get(ExecutionKind.ACCURATE, 0),
        "approximate": kinds.get(ExecutionKind.APPROXIMATE, 0),
        "dropped": kinds.get(ExecutionKind.DROPPED, 0),
        "steals": report.queue_stats.steals,
        "failed_steals": report.queue_stats.failed_steals,
    }


def from_run_reports(digests: list[dict]) -> dict[str, float]:
    """Policy and engine figures from :func:`digest_report` digests."""
    def total(key: str) -> float:
        return sum(d[key] for d in digests)

    decided = total("accurate") + total("approximate") + total("dropped")
    return {
        "policy.ratio_dev_pct": 100.0 * mean(
            [o for d in digests for o in d["offsets"]]
        ),
        "policy.inversion_pct": (
            100.0 * total("inversions") / decided if decided else 0.0
        ),
        "policy.accurate": total("accurate"),
        "policy.approximate": total("approximate"),
        "policy.dropped": total("dropped"),
        "engine.steals": total("steals"),
        "engine.failed_steals": total("failed_steals"),
        "engine.virtual_makespan_s": total("makespan_s"),
    }


def cache_metrics(stats: dict) -> dict[str, float]:
    """``cache.lookups``/``cache.hit_ratio`` from a ``stats()['cache']``."""
    lookups = stats["hits"] + stats["degraded_hits"] + stats["misses"]
    return {
        "cache.lookups": lookups,
        "cache.hit_ratio": (
            (stats["hits"] + stats["degraded_hits"]) / lookups
            if lookups else 0.0
        ),
    }


def emit(result, values: dict[str, float]) -> None:
    """Print every per-layer metric (0 for what no call reached)."""
    for name, unit in UNITS.items():
        result.metric(name, values.get(name, 0.0), unit)
