"""``ClusterService``: N serve shards behind one TaskService-shaped door.

PR 5's :class:`~repro.serve.server.TaskService` multiplexes every tenant
onto ONE shared scheduler behind a single service thread — the ROADMAP's
measured ceiling (~1.1k jobs/s, p95 drifting).  The cluster keeps that
core *unchanged* and multiplies it:

* **Shards** — each :class:`ShardWorker` owns a full ``TaskService``
  (its own :class:`~repro.runtime.scheduler.Scheduler`, engine and
  per-tenant governors) plus a dedicated single-thread executor; every
  touch of a shard's state marshals onto its thread, because schedulers
  are not thread-safe.  On the ``process`` backend each shard draws on
  its own tagged warm pool (:mod:`repro.runtime.pool`), so shard
  parallelism is process parallelism.
* **Routing** — jobs place by consistent hash of
  ``(tenant, kernel, args-digest)`` (:mod:`repro.cluster.hashring`):
  identical work coalesces in one shard's admission rounds exactly as
  it would on a single service, so sharding never *loses* the in-round
  dedupe or cache locality a single service had.
* **Cache** — one logical :class:`~repro.cluster.cache
  .ShardedResultCache`; each shard's service uses a read-through
  :class:`~repro.cluster.cache.CacheView`, so a degraded answer
  computed on shard 0 serves a later request routed anywhere.
* **Energy** — one :class:`~repro.cluster.ledger.EnergyLedger`; each
  shard's budgeted tenants hold :class:`~repro.cluster.ledger
  .LedgerLease` chunks and their governors steer against the quota
  actually leased (:meth:`~repro.tuning.governor.EnergyBudgetGovernor
  .retarget`), so lifetime budgets hold cluster-wide with no per-job
  global lock.

The service implements :class:`~repro.serve.ServiceProtocol` (the
submit doors, ``flush``, stats, the metrics scrapes and ``close``) —
the explicit contract :class:`~repro.serve.server.LocalGateway` and the
TCP :class:`~repro.serve.server.ServeServer` are typed against — so a
gateway fronts a whole cluster without changing a line of gateway code.

Queue caps are per shard: a tenant with ``max_pending=64`` on a 4-shard
cluster may hold up to 256 queued jobs cluster-wide, 64 on any one
shard.  Budgets, by contrast, are cluster-wide — that is the ledger's
whole job.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields

from ..config import RuntimeConfig
from ..obs import MetricsRegistry, SpanRecorder, obs_enabled, start_span
from ..registry import format_spec, parse_spec, register, resolve
from ..runtime.errors import ConfigError, RegistryError, SchedulerError
from ..serve.kernels import ServableKernel, get_servable
from ..serve.server import JobReport, JobRequest, TaskService
from ..serve.tenants import TenantSpec
from .cache import ShardedResultCache
from .hashring import DEFAULT_REPLICAS, HashRing, job_key
from .ledger import DEFAULT_CHUNK_FRAC, EnergyLedger

__all__ = ["ClusterSpec", "ShardWorker", "ClusterService"]

#: Registry names of the process-pool engine family (these shards get
#: per-shard tagged warm pools so they parallelize across OS processes).
_PROCESS_ENGINES = frozenset({"process", "procpool", "processes"})


@dataclass(frozen=True)
class ClusterSpec:
    """Shape of one serve cluster (plain data, registry family
    ``"cluster"``).

    Parameters
    ----------
    shards:
        Serve shards to run.  1 is a legal (degenerate) cluster.
    replicas:
        Virtual nodes per shard on the routing/cache ring.
    cache_capacity:
        LRU capacity of **each** cache partition (the logical cache
        holds ``shards * cache_capacity`` entries).
    lease_frac:
        Energy-lease chunk size as a fraction of a tenant's lifetime
        budget (see :mod:`repro.cluster.ledger`).
    """

    shards: int = 4
    replicas: int = DEFAULT_REPLICAS
    cache_capacity: int = 128
    lease_frac: float = DEFAULT_CHUNK_FRAC

    def __post_init__(self) -> None:
        if not isinstance(self.shards, int) or self.shards < 1:
            raise ConfigError(
                f"cluster shards must be an int >= 1, got {self.shards!r}"
            )
        if self.replicas < 1:
            raise ConfigError(
                f"cluster replicas must be >= 1, got {self.replicas}"
            )
        if self.cache_capacity < 1:
            raise ConfigError(
                f"cluster cache_capacity must be >= 1, "
                f"got {self.cache_capacity}"
            )
        if not 0.0 < self.lease_frac <= 1.0:
            raise ConfigError(
                f"cluster lease_frac must be in (0, 1], "
                f"got {self.lease_frac}"
            )


@register("cluster", "cluster", "default")
def make_cluster(**kwargs) -> ClusterSpec:
    """Registry factory: ``"cluster:shards=4,lease_frac=0.125"``."""
    known = {f.name for f in fields(ClusterSpec)}
    unknown = sorted(set(kwargs) - known)
    if unknown:
        raise ConfigError(
            f"unknown cluster spec option(s): {', '.join(unknown)} "
            f"(known: {', '.join(sorted(known))})"
        )
    return ClusterSpec(**kwargs)


def _resolve_cluster(spec) -> ClusterSpec:
    """Accept a ClusterSpec, a spec string, or a bare shard count."""
    if isinstance(spec, ClusterSpec):
        return spec
    if isinstance(spec, bool):
        raise ConfigError(f"cluster spec cannot be a bool ({spec!r})")
    if isinstance(spec, int):
        return ClusterSpec(shards=spec)
    cluster = resolve("cluster", spec)
    if not isinstance(cluster, ClusterSpec):
        raise ConfigError(
            f"cluster spec {spec!r} resolved to "
            f"{type(cluster).__name__}, not a ClusterSpec"
        )
    return cluster


def _shard_engine_spec(engine, shard: int):
    """Per-shard engine spec: tag process pools so each shard gets its
    own warm pool instead of all shards contending for one."""
    if not isinstance(engine, str):
        return engine
    name, kwargs = parse_spec(engine)
    if name.strip().lower() in _PROCESS_ENGINES and "pool_tag" not in kwargs:
        kwargs["pool_tag"] = f"cluster-shard-{shard}"
        return format_spec(name, kwargs)
    return engine


class ShardWorker:
    """One shard: a full TaskService plus its dedicated service thread."""

    def __init__(self, index: int, service: TaskService) -> None:
        self.index = index
        self.service = service
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix=f"repro-shard-{index}"
        )

    def call(self, fn, *args):
        """Run ``fn`` on the shard thread and wait for its result."""
        return self._executor.submit(fn, *args).result()

    def begin(self, fn, *args):
        """Start ``fn`` on the shard thread; returns the future."""
        return self._executor.submit(fn, *args)

    def close_executor(self) -> None:
        self._executor.shutdown(wait=True)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<ShardWorker {self.index}>"


class ClusterService:
    """N serve shards, one router, one cache, one ledger (module doc).

    Parameters
    ----------
    config:
        The :class:`~repro.config.RuntimeConfig` every shard's scheduler
        is built from; its ``cluster`` field (when set) shapes the
        cluster, its ``tenants`` field populates every shard.
    tenants:
        Extra tenant specs/instances, merged over ``config.tenants``
        (same contract as :class:`~repro.serve.server.TaskService`).
    cluster:
        Shape override: a :class:`ClusterSpec`, a ``"cluster:..."``
        spec string, or a bare shard count.  Falls back to
        ``config.cluster``, then to the default :class:`ClusterSpec`.
    max_batch / compute_quality:
        Forwarded to every shard's ``TaskService``.
    """

    def __init__(
        self,
        config: RuntimeConfig | None = None,
        tenants: tuple | list = (),
        *,
        cluster=None,
        max_batch: int = 8,
        compute_quality: bool = True,
    ) -> None:
        self.config = (
            config
            if config is not None
            else RuntimeConfig(policy="gtb-max", n_workers=16)
        )
        if cluster is None:
            cluster = self.config.build_cluster()
        self.spec = (
            _resolve_cluster(cluster)
            if cluster is not None
            else ClusterSpec()
        )
        n = self.spec.shards

        # Resolve the tenant roster ONCE; every shard instantiates its
        # own TenantState from the same frozen specs.
        specs: list[TenantSpec] = list(self.config.build_tenants())
        for extra in tenants:
            specs.append(
                extra
                if isinstance(extra, TenantSpec)
                else resolve("tenant", extra)
            )
        if not specs:
            from ..serve.tenants import make_standard_tenant

            specs = [make_standard_tenant()]
        names = [s.name for s in specs]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate tenant names in {names}")
        self.tenant_specs: tuple[TenantSpec, ...] = tuple(specs)

        # One registry + recorder for the WHOLE cluster: per-thread
        # counter cells make shard threads write-concurrent, per-shard
        # gauges carry a ``shard`` label, so one scrape reconciles the
        # cluster-wide run.
        self._metrics: MetricsRegistry | None = None
        self._spans: SpanRecorder | None = None
        if obs_enabled():
            self._metrics = MetricsRegistry()
            self._spans = SpanRecorder()

        self.ring = HashRing(range(n), replicas=self.spec.replicas)
        self.cache = ShardedResultCache(
            range(n),
            capacity_per_shard=self.spec.cache_capacity,
            replicas=self.spec.replicas,
            metrics=self._metrics,
        )
        self.ledger = EnergyLedger()
        if self._metrics is not None:
            self.ledger.bind_metrics(self._metrics)
        for spec in specs:
            if spec.budget_j is not None:
                self.ledger.open_account(spec.name, spec.budget_j)

        shard_base = self.config.replace(tenants=None)
        self.shards: list[ShardWorker] = []
        for i in range(n):
            shard_config = shard_base.replace(
                engine=_shard_engine_spec(self.config.engine, i)
            )
            service = TaskService(
                shard_config,
                tenants=specs,
                cache=self.cache.view(i),
                max_batch=max_batch,
                compute_quality=compute_quality,
                metrics=self._metrics,
                spans=self._spans,
                shard=str(i),
            )
            for spec in specs:
                if spec.budget_j is None:
                    continue
                lease = self.ledger.lease(
                    spec.name,
                    i,
                    chunk_j=self.spec.lease_frac * spec.budget_j,
                )
                service.tenants[spec.name].attach_lease(lease)
            self.shards.append(ShardWorker(i, service))

        self._kernels: dict[str, ServableKernel] = {}
        self._rounds = 0
        self._closed = False
        self.run_reports: list | None = None

    # -- routing ---------------------------------------------------------
    def _kernel(self, name: str) -> ServableKernel:
        kernel = self._kernels.get(name)
        if kernel is None:
            kernel = self._kernels[name] = get_servable(name)
        return kernel

    def route(self, request: JobRequest) -> int:
        """The shard this request belongs to.

        Unknown kernels and bad args still route (by tenant/kernel
        alone) so the owning shard's admission path produces the proper
        404/400 report — rejection logic lives in ONE place, the serve
        layer.  Stream frames route by ``(tenant, stream)`` instead of
        content: an ordered frame sequence pins to one shard, so frame
        order, the stream's admission window, and the governor's
        mid-stream degradation all live in one place.
        """
        if request.stream is not None:
            return self.ring.lookup(
                job_key(request.tenant, "\x1estream", request.stream)
            )
        digest = ""
        try:
            digest = self._kernel(request.kernel).digest(request.args)
        except (RegistryError, ConfigError):
            pass
        return self.ring.lookup(
            job_key(request.tenant, request.kernel, digest)
        )

    # -- the ServiceProtocol surface --------------------------------------
    @property
    def pending_jobs(self) -> int:
        return sum(w.service.pending_jobs for w in self.shards)

    @property
    def rounds(self) -> int:
        return self._rounds

    @property
    def tenants(self) -> dict[str, list]:
        """Per-tenant shard states: ``{name: [state_shard0, ...]}``."""
        return {
            spec.name: [
                w.service.tenants[spec.name] for w in self.shards
            ]
            for spec in self.tenant_specs
        }

    def submit(self, request: JobRequest | dict) -> JobReport:
        """Admit one job on its owning shard (consistent-hash routed)."""
        return self._on_shard(
            request, lambda service, req: service.submit(req)
        )

    def submit_anytime(
        self, request: JobRequest | dict, *, on_round=None
    ) -> JobReport:
        """Run one anytime job on its owning shard, synchronously.

        Leases are topped up on that shard first (anytime rounds bypass
        :meth:`flush`, where replenishment normally happens) and the
        ledger is settled after, so cluster-wide budget enforcement and
        parity hold for the iterative shape too.
        """

        def run(service: TaskService, req: JobRequest) -> JobReport:
            for state in service.tenants.values():
                state.replenish()
            return service.submit_anytime(req, on_round=on_round)

        report = self._on_shard(request, run)
        self.ledger.settle_all()
        return report

    def _on_shard(self, request: JobRequest | dict, call) -> JobReport:
        """Route one request and run ``call(service, request)`` on the
        owning shard's thread, inside a ``cluster.route`` span.

        The shard's ``serve.job`` span parents under the routing span,
        so one job submitted through the cluster yields a single tree:
        ``cluster.route`` → ``serve.job`` → ``runtime.group``.
        """
        if self._closed:
            raise SchedulerError("cluster service is closed")
        if isinstance(request, dict):
            request = JobRequest.from_dict(request)
        span = None
        if self._spans is not None:
            span = start_span(
                "cluster.route",
                trace_id=request.trace_id,
                parent_id=request.parent_span,
                tenant=request.tenant,
                job=request.job_id,
            )
            request.trace_id = span.trace_id
            request.parent_span = span.span_id
        shard = self.route(request)
        worker = self.shards[shard]
        report = worker.call(call, worker.service, request)
        if span is not None:
            span.end(self._spans, shard=shard, status=report.status)
        return report

    def flush(self) -> list[JobReport]:
        """One cluster round: every shard flushes concurrently.

        Every budgeted tenant's lease is topped up first, shard by
        shard on the calling thread, so the cut-off decision is made
        against fresh cluster headroom and governors steer against the
        quota actually granted.  Serial, in shard order, so grants (and
        with them every served ratio) do not depend on which shard
        thread reaches the ledger first.  Shards with empty queues still
        run their (cheap, empty) round.  Settles the ledger afterwards,
        so ``spent_j`` figures lag reality by at most one round.
        """
        if self._closed:
            raise SchedulerError("cluster service is closed")
        for w in self.shards:
            for state in w.service.tenants.values():
                state.replenish()
        futures = [w.begin(w.service.flush) for w in self.shards]
        reports = list(
            itertools.chain.from_iterable(f.result() for f in futures)
        )
        self.ledger.settle_all()
        if reports:
            self._rounds += 1
        return reports

    def tenant_summary(self, name: str) -> dict:
        """One tenant's cluster-wide digest (counters summed over
        shards, budget figures from the ledger)."""
        states = [w.service.tenants[name] for w in self.shards]
        spec = states[0].spec
        summary = {
            "tenant": name,
            "tier": spec.tier,
            "budget_j": spec.budget_j,
            "spent_j": sum(s.spent_j for s in states),
            "pending": sum(s.pending for s in states),
            "executed": sum(s.executed for s in states),
            "cached": sum(s.cached for s in states),
            "cached_degraded": sum(
                s.cached_degraded for s in states
            ),
            "coalesced": sum(s.coalesced for s in states),
            "rejected": sum(s.rejected for s in states),
            "ratio": min(s.ratio for s in states),
        }
        if spec.budget_j is not None:
            account = self.ledger.account(name)
            summary["ledger_settled_j"] = account.settled_j
            summary["ledger_granted_j"] = account.granted_j
            # Cluster-wide spend at the budget, or every shard's lease
            # dry: either way the tenant is over budget (shards can
            # overdraw their leases before the ledger settles).
            summary["over_budget"] = summary["spent_j"] >= (
                spec.budget_j
            ) or all(s.over_budget for s in states)
        else:
            summary["over_budget"] = False
        return summary

    def stats(self) -> dict:
        """Cluster-wide digest (the gateway's ``stats`` op)."""
        return {
            "cluster": {
                "shards": len(self.shards),
                "replicas": self.spec.replicas,
            },
            # Duck-type parity with TaskService.stats(): callers (the
            # smoke driver, dashboards) read the same top-level keys.
            "rounds": self._rounds,
            "tenants": {
                spec.name: self.tenant_summary(spec.name)
                for spec in self.tenant_specs
            },
            "ledger": self.ledger.to_dict(),
            "cache": self.cache.stats.to_dict(),
            "cache_shards": self.cache.to_dict()["per_shard"],
            "pending_jobs": self.pending_jobs,
            "engine_time_s": self.makespan_s,
            "engine": str(self.config.engine),
            "per_shard": [
                {
                    "shard": w.index,
                    "pending_jobs": w.service.pending_jobs,
                    "rounds": w.service.rounds,
                    "engine_time_s": (
                        w.service.scheduler.engine.master_time
                    ),
                    "data_plane": w.service.data_plane_stats,
                }
                for w in self.shards
            ],
        }

    # -- telemetry --------------------------------------------------------
    @property
    def metrics(self) -> MetricsRegistry | None:
        """The cluster-wide registry (None when telemetry is off)."""
        return self._metrics

    @property
    def span_recorder(self) -> SpanRecorder | None:
        """The cluster-wide span sink (None when telemetry is off)."""
        return self._spans

    def collect(self) -> None:
        """Refresh every sampled gauge: each shard's serve gauges plus
        the ledger's per-lease occupancy."""
        if self._metrics is None:
            return
        for w in self.shards:
            w.service.collect()
        lease_gauge = self._metrics.gauge(
            "repro_ledger_lease_remaining_joules",
            "Unspent Joules held on each shard's energy lease.",
            labels=("tenant", "shard"),
        )
        for lease in self.ledger.to_dict()["leases"]:
            lease_gauge.labels(
                lease["tenant"], str(lease["shard"])
            ).set(lease["remaining_j"])

    def metrics_snapshot(self) -> dict:
        """Stable-JSON snapshot of the cluster-wide registry."""
        if self._metrics is None:
            raise SchedulerError(
                "telemetry is disabled on this cluster (REPRO_OBS=0)"
            )
        self.collect()
        return self._metrics.to_dict()

    def metrics_text(self) -> str:
        """Prometheus text exposition of the cluster-wide registry."""
        if self._metrics is None:
            raise SchedulerError(
                "telemetry is disabled on this cluster (REPRO_OBS=0)"
            )
        self.collect()
        return self._metrics.to_prometheus()

    @property
    def makespan_s(self) -> float:
        """Cluster makespan on the engines' own timelines: the slowest
        shard's clock (virtual seconds on simulated backends — the
        deterministic figure the scaling probe gates)."""
        return max(
            w.service.scheduler.engine.master_time
            for w in self.shards
        )

    # -- lifecycle --------------------------------------------------------
    def close(self):
        """Drain every shard, settle and reclaim the ledger, and return
        the per-shard :class:`~repro.runtime.stats.RunReport` list."""
        if self._closed:
            return self.run_reports
        while self.pending_jobs:
            self.flush()
        futures = [
            w.begin(w.service.close) for w in self.shards
        ]
        self.run_reports = [f.result() for f in futures]
        self.ledger.reclaim()
        for w in self.shards:
            w.close_executor()
        self._closed = True
        return self.run_reports

    def __enter__(self) -> "ClusterService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<ClusterService {len(self.shards)} shards "
            f"{len(self.tenant_specs)} tenants>"
        )
