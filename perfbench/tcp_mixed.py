"""``tcp-mixed``: the full path a job travels, over TCP.

The gateway runs in its own process (``perfbench/gateway.py``).  This
process is the only load generator: one asyncio thread, two
connections, closed loop (each connection sends its next request only
when the previous reply has arrived).  Connection ``gold`` (premium
tenant) sends batch jobs; connection ``silver`` (standard tenant) sends
batch jobs, a Sobel stream lane (every 4th request) and, every 20th
request, a 20-round anytime Jacobi or k-means job, which holds the
service thread and blocks the other connection's rounds behind it.

Batch jobs are sobel / dct / mc-pi / fluidanimate.  About half repeat
an input from a small popular pool, so the result cache answers some of
them; the rest are fresh.  Every reply is checked as it arrives; at the
end the gateway's ``stats`` and ``metrics`` verbs must reconcile with
the client's own tallies.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import select
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass

import numpy as np

import layers
from common import (
    OUT_DIR, PI_TOLERANCE, QUALITY_BOUND, Result, check_counts,
    check_quality, mean, median, monotone_non_increasing, percentile,
    slowness,
)

HERE = os.path.dirname(os.path.abspath(__file__))
BATCH_ARGS = {
    "sobel": {"size": 64},
    "dct": {"size": 64},
    "mc-pi": {"blocks": 16, "samples": 2000},
    "fluidanimate": {"particles": 192},
}
ANYTIME_ARGS = {"jacobi": {"n": 256, "chunk": 32}, "kmeans": {"points": 1024}}
RATIOS = (0.3, 0.5, 0.8, 1.0)
FLOOR = {"gold": 0.7, "silver": 0.3}
REPEAT_SHARE = 0.5    # chance that a batch job takes a popular input
STREAM_EVERY = 4
ANYTIME_EVERY = 20
ANYTIME_ROUNDS = 20
SETUP_LAUNCHES = 5
READY_TIMEOUT_S = 120.0
WINDOW_S = 2.0
PROBES = 10           # host probes before and after each load phase


@dataclass
class Request:
    kind: str             # "batch", "stream" or "anytime"
    tenant: str
    kernel: str
    args: dict
    ratio: float
    frame: int | None = None
    rounds: int | None = None


class Lane:
    """The seeded request sequence of one connection."""

    def __init__(self, seed: int, tenant: str, mixed: bool) -> None:
        self.tenant = tenant
        self.mixed = mixed
        self.seed = seed
        self.pool = _popular_pool(seed)

    def __iter__(self):
        rng = np.random.default_rng([self.seed, 1 + self.mixed])
        kernels = list(BATCH_ARGS)
        n = frame = 0
        while True:
            fresh = int(rng.integers(2**31))
            if self.mixed and n % ANYTIME_EVERY == ANYTIME_EVERY - 1:
                kernel = list(ANYTIME_ARGS)[n // ANYTIME_EVERY % 2]
                yield Request("anytime", self.tenant, kernel,
                              {**ANYTIME_ARGS[kernel], "seed": fresh}, 1.0,
                              rounds=ANYTIME_ROUNDS)
            elif self.mixed and n % STREAM_EVERY == 1:
                yield Request("stream", self.tenant, "sobel",
                              {**BATCH_ARGS["sobel"], "seed": fresh}, 0.8,
                              frame=frame)
                frame += 1
            elif rng.random() < REPEAT_SHARE:
                pick = int(rng.integers(len(self.pool)))
                kernel, args, ratio = self.pool[pick]
                yield Request("batch", self.tenant, kernel, args, ratio)
            else:
                kernel = kernels[int(rng.integers(len(kernels)))]
                ratio = RATIOS[int(rng.integers(len(RATIOS)))]
                yield Request("batch", self.tenant, kernel,
                              {**BATCH_ARGS[kernel], "seed": fresh}, ratio)
            n += 1


def _popular_pool(seed: int) -> list[tuple]:
    """Every batch kernel at every ratio once; only the inputs vary with
    the seed, so each run's mix of work is the same."""
    rng = np.random.default_rng([seed, 0])
    return [
        (kernel, {**args, "seed": int(rng.integers(2**31))}, ratio)
        for kernel, args in BATCH_ARGS.items()
        for ratio in RATIOS
    ]


@dataclass
class Reply:
    request: Request
    job: dict
    sent_s: float
    latency_s: float


def check_reply(req: Request, job: dict) -> list[str]:
    """Per-reply output checks."""
    problems = []
    what = f"{req.kind} {req.kernel}"
    if job.get("code") != 200:
        return [f"{what}: code {job.get('code')} ({job.get('status')})"]
    if not check_counts(job["accurate"], job["approximate"], job["dropped"],
                        job["tasks_total"]):
        problems.append(f"{what}: decision counts do not add up")
    if job["ratio_served"] < FLOOR[req.tenant] - 1e-12:
        problems.append(f"{what}: served below the {req.tenant} floor")
    if req.kind == "anytime":
        curve = job.get("round_quality", [])
        if not curve or len(curve) != job.get("rounds_run"):
            problems.append(f"{what}: no round quality curve")
        elif req.kernel == "jacobi" and not monotone_non_increasing(curve):
            # A Jacobi sweep on a diagonally dominant system is a
            # contraction, so every round must get closer.  Lloyd rounds
            # lower the k-means objective but not always the distance to
            # the converged centroids that round_quality measures; a
            # k-means rise is counted by the caller, not failed.
            problems.append(f"{what}: round quality not monotone")
    elif not check_quality(req.kernel, job.get("quality")):
        problems.append(f"{what}: quality {job.get('quality')} above "
                        f"{QUALITY_BOUND[req.kernel]}")
    if req.kernel == "mc-pi" and not (
        abs(job.get("result", math.inf) - math.pi) <= PI_TOLERANCE
    ):
        problems.append(f"mc-pi estimate {job.get('result')}")
    if req.kind == "stream" and (
        job.get("stream") != "cam" or job.get("frame") != req.frame
    ):
        problems.append(f"stream frame {job.get('frame')} out of order "
                        f"(sent {req.frame})")
    return problems


# ----------------------------------------------------------------------
# The gateway process
# ----------------------------------------------------------------------
class Gateway:
    """A launched ``gateway.py`` process."""

    def __init__(self, trace: bool, summary: str | None = None) -> None:
        cmd = [sys.executable, os.path.join(HERE, "gateway.py"),
               "--trace", str(int(trace))]
        if summary:
            cmd += ["--summary", summary]
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )
        ready, _, _ = select.select([self.proc.stdout], [], [],
                                    READY_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else b""
        self.ready_s = time.perf_counter() - t0
        try:
            address = json.loads(line)
            self.host, self.port = address["host"], address["port"]
        except (ValueError, KeyError, TypeError):
            self.stop()
            raise RuntimeError(
                f"gateway process did not start (said {line[:200]!r})"
            ) from None

    def stop(self) -> int:
        """Close its stdin and wait for it to exit."""
        try:
            self.proc.stdin.close()
            return self.proc.wait(timeout=120)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            return self.proc.wait()
        finally:
            self.proc.stdout.close()


async def _lane(client, lane: Lane, deadline: float, replies: list,
                result: Result) -> None:
    from repro.serve import ServeClientError

    loop = asyncio.get_running_loop()
    for req in lane:
        if loop.time() >= deadline:
            return
        t0 = time.perf_counter()
        try:
            job = await client.submit(
                req.tenant, req.kernel, req.args, req.ratio,
                stream="cam" if req.kind == "stream" else None,
                frame=req.frame, rounds=req.rounds,
            )
        except (ServeClientError, OSError, ValueError) as exc:
            # Transport or protocol failure: this connection is done.
            result.op(False, f"{req.kind} {req.kernel}: {exc}")
            return
        latency = time.perf_counter() - t0
        problems = check_reply(req, job)
        result.op(not problems, "; ".join(problems))
        replies.append(Reply(req, job, t0, latency))


async def _load(gateway: Gateway, seed: int, seconds: float,
                result: Result) -> tuple[list[Reply], float, float]:
    from repro.serve import AsyncServeClient

    lanes = [Lane(seed, "gold", mixed=False), Lane(seed, "silver", mixed=True)]
    clients = [
        await AsyncServeClient(gateway.host, gateway.port).connect()
        for _ in lanes
    ]
    replies: list[Reply] = []
    loop = asyncio.get_running_loop()
    t0 = time.perf_counter()
    try:
        await asyncio.gather(*(
            _lane(client, lane, loop.time() + seconds, replies, result)
            for client, lane in zip(clients, lanes)
        ))
    finally:
        wall_s = time.perf_counter() - t0
        for client in clients:
            await client.close()
    return replies, t0, wall_s


def _reconcile(gateway: Gateway, replies: list[Reply],
               result: Result) -> dict:
    """Scrape ``stats`` and ``metrics``; every per-tenant count and the
    cache hits must match the client's tallies.  Returns the stats."""
    from repro.serve import ServeClient

    with ServeClient(gateway.host, gateway.port, timeout_s=60.0) as client:
        stats = client.stats()
        result.op(True)
        metrics = client.metrics()
        result.op(True)
    seen = Counter((r.job["tenant"], r.job["status"]) for r in replies)
    fields = {"executed": "executed", "cached": "cached",
              "cached-degraded": "cached_degraded",
              "coalesced": "coalesced"}
    for tenant in FLOOR:
        summary = stats["tenants"][tenant]
        for status, field in fields.items():
            if summary[field] != seen[tenant, status]:
                result.fail(f"stats: {tenant} {field} = {summary[field]}, "
                            f"client saw {seen[tenant, status]}")
    scraped = Counter()
    for series in metrics["repro_jobs_total"]["series"]:
        labels = series["labels"]
        scraped[labels["tenant"], labels["status"]] += series["value"]
    for key in set(scraped) | set(seen):
        if scraped[key] != seen[key]:
            result.fail(f"metrics: jobs {key} = {scraped[key]}, "
                        f"client saw {seen[key]}")
    hits = sum(
        seen[t, s] for t in FLOOR for s in ("cached", "cached-degraded")
    )
    cache = stats["cache"]
    if cache["hits"] + cache["degraded_hits"] != hits:
        result.fail(f"stats: cache hits {cache['hits']}+"
                    f"{cache['degraded_hits']}, client saw {hits}")
    lookups = Counter()
    for series in metrics["repro_cache_lookups_total"]["series"]:
        lookups[series["labels"]["result"]] += series["value"]
    if lookups["hit"] + lookups["degraded"] != hits:
        result.fail(f"metrics: cache hits {dict(lookups)}, client saw {hits}")
    return stats


def _serve(gateway: Gateway, seed: int, seconds: float,
           result: Result) -> tuple[list[Reply], dict]:
    """Load one gateway, reconcile, and stop it.  Returns the replies
    and their throughput, latency and quality figures."""
    try:
        before = slowness(PROBES)
        replies, start, wall_s = asyncio.run(
            _load(gateway, seed, seconds, result)
        )
        slow = (before + slowness(PROBES)) / 2
        stats = _reconcile(gateway, replies, result)
    finally:
        code = gateway.stop()
    if code != 0:
        result.fail(f"gateway process exited with code {code}")
    fig = _figures(replies, start, wall_s, slow)
    fig["stats"] = stats
    return replies, fig


def _figures(replies: list[Reply], start: float, wall_s: float,
             slow: float) -> dict[str, float]:
    """Figures of one load phase.  Unlike the in-process workloads, its
    timings are not divided by the host slowness ``slow`` (only
    reported): 10 ms of each request is the gateway's batch-window
    timer, which does not slow down with the host."""
    ok = [r for r in replies if r.job.get("code") == 200]
    # Throughput is the median over equal windows of the run, so a
    # short stall of the host moves one window, not the figure.
    n = max(1, int(wall_s // WINDOW_S))
    width = wall_s / n
    jobs, tasks_in = [0] * n, [0] * n
    for r in ok:
        k = int((r.sent_s + r.latency_s - start) / width)
        if 0 <= k < n:
            jobs[k] += 1
            tasks_in[k] += r.job["tasks_total"]
    interactive = [r.latency_s for r in replies if r.request.kind != "anytime"]
    anytime = [r.latency_s for r in replies if r.request.kind == "anytime"]
    tasks = sum(r.job["tasks_total"] for r in ok)
    energy = sum(r.job["energy_j"] for r in ok)
    executed = [r.job for r in ok if r.job["tasks_total"]]
    return {
        "jobs_per_s": median([j / width for j in jobs]),
        "tasks_per_s": median([t / width for t in tasks_in]),
        "slowness": slow,
        "latency_p50_ms": 1e3 * percentile(interactive, 50),
        "latency_p99_ms": 1e3 * percentile(interactive, 99),
        "anytime_p50_ms": 1e3 * percentile(anytime, 50) if anytime else 0.0,
        "energy_mj_per_job": 1e3 * energy / len(ok),
        "energy_uj_per_task": 1e6 * energy / tasks,
        "quality_loss": mean([
            r.job["quality"] for r in ok if r.request.kind != "anytime"
        ]),
        "ratio_dev_pct": 100.0 * mean([
            abs(j["accurate"] / j["tasks_total"] - j["ratio_served"])
            for j in executed
        ]),
        "interactive": len(interactive),
        "anytime": len(anytime),
        "ok": len(ok),
        "tasks": tasks,
    }


def _repeat_share(replies: list[Reply]) -> float:
    """Share of batch requests whose input was already sent this run."""
    seen, repeats, batch = set(), 0, 0
    for r in sorted(replies, key=lambda r: r.sent_s):
        if r.request.kind != "batch":
            continue
        key = (r.request.kernel, json.dumps(r.request.args, sort_keys=True),
               r.request.ratio)
        batch += 1
        repeats += key in seen
        seen.add(key)
    return repeats / batch if batch else 0.0


def run(seed: int, seconds: float, trace: bool) -> Result:
    result = Result()
    if not trace:
        ready = []
        for _ in range(SETUP_LAUNCHES - 1):
            gateway = Gateway(trace=False)
            ready.append(gateway.ready_s)
            gateway.stop()
        gateway = Gateway(trace=False)
        ready.append(gateway.ready_s)
        replies, fig = _serve(gateway, seed, seconds, result)
        cache = fig["stats"]["cache"]
        hits = cache["hits"] + cache["degraded_hits"]
        result.note(f"closed loop, 2 connections; repeated batch inputs "
                    f"{_repeat_share(replies):.3f}; cache hits "
                    f"{hits / max(len(replies), 1):.3f} of requests; "
                    f"{fig['anytime']} anytime jobs")
        result.note(f"host slowness {fig['slowness']:.3f} (not adjusted "
                    "for: the batch window is a timer)")
        result.metric("setup_s", median(ready), "s", len(ready))
        result.metric("jobs_per_s", fig["jobs_per_s"], "1/s", fig["ok"])
        result.metric("tasks_per_s", fig["tasks_per_s"], "1/s", fig["tasks"])
        result.metric("latency_p50_ms", fig["latency_p50_ms"], "ms",
                      fig["interactive"])
        result.metric("latency_p99_ms", fig["latency_p99_ms"], "ms",
                      fig["interactive"])
        result.note(f"anytime_p50_ms = {fig['anytime_p50_ms']:.6g} ms  "
                    f"(n={fig['anytime']}; printed only: the other "
                    "workloads run no anytime jobs)")
        rises = sum(
            1 for r in replies
            if r.request.kernel == "kmeans" and r.job.get("code") == 200
            and not monotone_non_increasing(r.job["round_quality"])
        )
        result.note(f"anytime k-means curves that rise somewhere: {rises}")
        result.metric("energy_mj_per_job", fig["energy_mj_per_job"],
                      "mJ_modelled", fig["ok"])
        result.metric("energy_uj_per_task", fig["energy_uj_per_task"],
                      "uJ_modelled", fig["tasks"])
        result.metric("quality_loss", fig["quality_loss"], "score", fig["ok"])
        result.metric("ratio_dev_pct", fig["ratio_dev_pct"], "%", fig["ok"])
        return result

    # Traced run: an untraced gateway for half the time, then a traced one.
    _, before = _serve(Gateway(trace=False), seed, seconds / 2, result)
    os.makedirs(OUT_DIR, exist_ok=True)
    summary = os.path.join(OUT_DIR, "tcp-mixed-layers.json")
    if os.path.exists(summary):
        os.remove(summary)
    traced, after = _serve(
        Gateway(trace=True, summary=summary), seed, seconds / 2, result
    )
    values = {}
    if os.path.exists(summary):
        with open(summary, encoding="utf-8") as f:
            values = json.load(f)
    else:
        result.fail("the traced gateway wrote no layer summary")
    values.update(layers.cache_metrics(after["stats"]["cache"]))
    ok = [r.job for r in traced if r.job.get("code") == 200]
    values["tenants.ratio_served_mean"] = mean([j["ratio_served"] for j in ok])
    values["engine.virtual_latency_ms"] = 1e3 * mean(
        [j["latency_s"] for j in ok if j["tasks_total"]]
    )
    for name in ("jobs_per_s", "tasks_per_s", "latency_p50_ms"):
        values[f"overhead.{name}"] = after[name] - before[name]
    layers.emit(result, values)
    return result
