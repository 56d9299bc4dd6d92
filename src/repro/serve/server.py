"""``repro.serve`` — the significance-aware runtime as a service.

The paper's runtime trades quality for energy one batch run at a time;
this module composes the pieces grown around it (registries, pluggable
engines, batched spawn, the budget governor) into a long-lived,
multi-tenant *task service*:

* :class:`TaskService` — the in-process core.  One shared
  :class:`~repro.runtime.scheduler.Scheduler` (any execution backend)
  multiplexes every tenant's jobs: each admitted job becomes one task
  group (label ``tenant/job-id``), whole admission rounds are spawned
  through the batched ``spawn_many`` fast path, and one barrier per
  round retires them.  Per-job energy, decision mix, quality and
  latency are carved out of the shared trace by group.
* **Admission control** (:mod:`repro.serve.tenants`) — per-tenant queue
  caps and lifetime energy budgets.  A tenant over budget or over its
  queue cap is answered from the approximate-result cache
  (:mod:`repro.serve.cache`) when an acceptable lower-ratio entry
  exists, and rejected 429-style otherwise.  Budgeted tenants are
  steered by a per-tenant
  :class:`~repro.tuning.governor.EnergyBudgetGovernor` that lowers the
  ratio their jobs are *served* at as the budget drains.
* :class:`LocalGateway` — synchronous in-process front end (tests,
  benches, figures).
* :class:`ServeServer` — an asyncio JSON-lines-over-TCP gateway
  (``python -m repro.harness serve``); see :mod:`repro.serve.client`
  for the matching clients.

Energy attribution: a job is billed its tasks' busy seconds times the
machine model's active-core power — the *marginal* cost of admitting
the job onto the shared machine.  Package-static power is a cost of
running the service at all and is reported on the service totals, not
to tenants.
"""

from __future__ import annotations

import itertools
import json
import time as _time
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from ..config import RuntimeConfig
from ..obs import MetricsRegistry, SpanRecorder, obs_enabled, start_span
from ..runtime.errors import ConfigError, RegistryError, SchedulerError
from ..runtime.scheduler import Scheduler
from ..runtime.task import ExecutionKind, TaskCost
from . import ServiceProtocol
from .cache import ApproxResultCache, _ratio_key
from .kernels import AnytimeServable, ServableKernel, get_servable
from .tenants import TenantSpec, TenantState

__all__ = [
    "JobRequest",
    "JobReport",
    "RoundResult",
    "StreamState",
    "TaskService",
    "LocalGateway",
    "ServeServer",
    "DEFAULT_SERVE_CONFIG",
    "STREAM_WINDOW",
    "STREAM_MIN_RATIO",
]

#: Per-stream admission window: frames admitted but not yet executed.
#: A producer that outruns the service by more than a window's worth
#: of frames is pushed back (429) instead of ballooning the queue —
#: backpressure preserves frame order (the frame is *not* consumed, so
#: the producer retries the same index).
STREAM_WINDOW = 32

#: Floor of the served ratio for an over-budget stream frame.  Streams
#: degrade instead of dropping frames, but a D-mode kernel at ratio 0
#: would drop every task and return an empty answer — the stream
#: contract guarantees at least this much accurate work per frame.
STREAM_MIN_RATIO = 0.1

#: Default runtime for a service: GTB Max-Buffer stamps each round's
#: decisions at the round barrier by sorting every job group on
#: significance, so a job served at ratio r gets *exactly*
#: ``ceil(r * B)`` accurate tasks — per-job groups are far too small
#: for LQH's per-worker histograms to warm up.
DEFAULT_SERVE_CONFIG = RuntimeConfig(policy="gtb-max", n_workers=16)

#: Longest request line the TCP gateway reads (asyncio's default
#: stream limit, stated so the error frame can name it).
_LINE_LIMIT = 2**16

_job_ids = itertools.count(1)


@dataclass
class JobRequest:
    """One job submission: a kernel, its args, and a quality request.

    Three job shapes share this envelope:

    * **batch** (the default) — one kernel invocation, one answer.
    * **streaming** — ``stream`` names an ordered frame sequence; the
      optional ``frame`` index must match the stream's next expected
      frame (omitted = "the next one").  Frames are admitted through a
      per-stream window and degrade in ratio under budget pressure
      instead of being dropped.
    * **anytime** — ``rounds > 1`` (or a ``deadline_s``) asks an
      anytime-capable kernel to iterate, reporting improving quality
      after every round; the client takes the current answer when its
      deadline hits (see :meth:`TaskService.submit_anytime`).
    """

    tenant: str
    kernel: str
    args: dict | None = None
    #: Requested accurate-task ratio (the Table 1 knob, per job).
    ratio: float = 1.0
    job_id: str = field(default_factory=lambda: f"j{next(_job_ids)}")
    #: Streaming: the frame sequence this job belongs to.
    stream: str | None = None
    #: Streaming: explicit frame index (must be the stream's next).
    frame: int | None = None
    #: Anytime: refinement rounds to run (1 = plain batch job).
    rounds: int = 1
    #: Anytime: stop after this much engine time, keeping the current
    #: answer — the "take what you have" deadline.
    deadline_s: float | None = None
    #: Observability: the distributed trace this job belongs to and the
    #: caller's span to parent under.  ``None`` (the default) lets the
    #: first instrumented layer mint a fresh trace; gateways and the
    #: cluster router fill both in as the request crosses layers (see
    #: :mod:`repro.obs.spans`).
    trace_id: str | None = None
    parent_span: str | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.ratio <= 1.0:
            raise ConfigError(
                f"job ratio must be in [0, 1], got {self.ratio}"
            )
        if self.args is not None and not isinstance(self.args, dict):
            raise ConfigError(
                f"job args must be a dict or None, got {self.args!r}"
            )
        if self.stream is not None and (
            not isinstance(self.stream, str) or not self.stream
        ):
            raise ConfigError(
                f"job stream must be a non-empty string, "
                f"got {self.stream!r}"
            )
        if self.frame is not None:
            if self.stream is None:
                raise ConfigError("job frame requires a stream")
            if (
                not isinstance(self.frame, int)
                or isinstance(self.frame, bool)
                or self.frame < 0
            ):
                raise ConfigError(
                    f"job frame must be an int >= 0, got {self.frame!r}"
                )
        if (
            not isinstance(self.rounds, int)
            or isinstance(self.rounds, bool)
            or self.rounds < 1
        ):
            raise ConfigError(
                f"job rounds must be an int >= 1, got {self.rounds!r}"
            )
        if self.deadline_s is not None and not self.deadline_s > 0:
            raise ConfigError(
                f"job deadline_s must be > 0, got {self.deadline_s!r}"
            )
        for attr in ("trace_id", "parent_span"):
            value = getattr(self, attr)
            if value is not None and (
                not isinstance(value, str) or not value
            ):
                raise ConfigError(
                    f"job {attr} must be a non-empty string or None, "
                    f"got {value!r}"
                )
        if self.stream is not None and self.anytime:
            raise ConfigError(
                "a job is streaming or anytime, not both "
                f"(stream={self.stream!r}, rounds={self.rounds}, "
                f"deadline_s={self.deadline_s!r})"
            )

    @property
    def anytime(self) -> bool:
        """Whether this request asks for the anytime/iterative shape."""
        return self.rounds > 1 or self.deadline_s is not None

    @classmethod
    def from_dict(cls, data: dict) -> "JobRequest":
        known = {
            "tenant", "kernel", "args", "ratio", "job_id",
            "stream", "frame", "rounds", "deadline_s",
            "trace_id", "parent_span",
        }
        unknown = set(data) - known
        if unknown:
            raise ConfigError(
                f"unknown JobRequest keys {sorted(unknown)}"
            )
        missing = {"tenant", "kernel"} - set(data)
        if missing:
            raise ConfigError(
                f"JobRequest needs {sorted(missing)}"
            )
        return cls(**data)


@dataclass
class JobReport:
    """Per-job outcome: the service's answer envelope.

    ``status`` is one of ``executed``, ``cached``, ``cached-degraded``,
    ``coalesced`` (identical in-round work, served from its leader's
    execution), ``queued`` (transient), or a ``rejected-*`` reason;
    ``code``
    mirrors it HTTP-style (200 served, 429 shed, 404 unknown).
    ``latency_s`` is measured on the engine's own timeline (virtual
    seconds on simulated backends — deterministic), ``wall_latency_s``
    on the host clock.
    """

    job_id: str
    tenant: str
    kernel: str
    status: str = "queued"
    code: int = 0
    ratio_requested: float = 1.0
    ratio_served: float | None = None
    quality: float | None = None
    energy_j: float = 0.0
    latency_s: float = 0.0
    wall_latency_s: float = 0.0
    tasks_total: int = 0
    accurate: int = 0
    approximate: int = 0
    dropped: int = 0
    detail: str = ""
    output: Any = field(default=None, repr=False)
    #: Streaming: stream name / frame index this report answers.
    stream: str | None = None
    frame: int | None = None
    #: Anytime: rounds actually run and the per-round quality curve.
    rounds_run: int = 0
    round_quality: list = field(default_factory=list)
    #: Observability: the trace/span this job was served under (``None``
    #: when telemetry is off) — clients join these against the span log.
    trace_id: str | None = None
    span_id: str | None = None

    @property
    def ok(self) -> bool:
        return self.code == 200

    @property
    def served_from_cache(self) -> bool:
        return self.status in ("cached", "cached-degraded")

    def to_dict(self) -> dict:
        """Wire form: everything but the output payload (scalar outputs
        ride along as ``result``)."""
        out = {
            "job_id": self.job_id,
            "tenant": self.tenant,
            "kernel": self.kernel,
            "status": self.status,
            "code": self.code,
            "ratio_requested": self.ratio_requested,
            "ratio_served": self.ratio_served,
            "quality": self.quality,
            "energy_j": self.energy_j,
            "latency_s": self.latency_s,
            "wall_latency_s": self.wall_latency_s,
            "tasks_total": self.tasks_total,
            "accurate": self.accurate,
            "approximate": self.approximate,
            "dropped": self.dropped,
            "detail": self.detail,
        }
        if self.stream is not None:
            out["stream"] = self.stream
            out["frame"] = self.frame
        if self.rounds_run:
            out["rounds_run"] = self.rounds_run
            out["round_quality"] = list(self.round_quality)
        if self.trace_id is not None:
            out["trace_id"] = self.trace_id
            out["span_id"] = self.span_id
        if isinstance(self.output, (int, float, str, bool)):
            out["result"] = self.output
        return out


@dataclass
class StreamState:
    """Live admission state of one ``(tenant, stream)`` frame sequence.

    Streams get their own admission lane: frame occupancy counts
    against a per-stream window (:data:`STREAM_WINDOW`), not the
    tenant's batch queue cap, and a budget-throttled tenant's frames
    are *degraded* in served ratio — down to the tenant's floor, never
    below :data:`STREAM_MIN_RATIO` — instead of being rejected.
    """

    tenant: str
    stream: str
    max_inflight: int = STREAM_WINDOW
    #: Next expected frame index (frames must arrive in order).
    next_frame: int = 0
    #: Frames admitted but not yet executed (the window universe).
    inflight: int = 0
    #: Lifetime counters for stats and the scenario figures.
    frames: int = 0
    degraded: int = 0
    rejected: int = 0

    def summary(self) -> dict:
        return {
            "tenant": self.tenant,
            "stream": self.stream,
            "next_frame": self.next_frame,
            "inflight": self.inflight,
            "frames": self.frames,
            "degraded": self.degraded,
            "rejected": self.rejected,
        }


@dataclass
class RoundResult:
    """One anytime round's snapshot, handed to the round callback.

    The callback may return ``False`` to take the current answer and
    stop iterating — the "early take" that makes the job *anytime*.
    """

    round: int
    output: Any = field(repr=False)
    quality: float | None
    energy_j: float
    elapsed_s: float
    ratio: float


@dataclass
class _Admitted:
    """An admitted job, and the unit it executes as in each round.

    Admission (:meth:`TaskService._admit`) fills the job's identity;
    each execution round names the unit (``label``, ``span``), sets its
    served ratio on ``report.ratio_served`` and its ``plan`` (or the
    compile tier's ``splan``), and the round executor
    (:meth:`TaskService._run_round`) leaves ``results``, ``counts``
    and ``energy_j`` behind.
    """

    request: JobRequest
    kernel: ServableKernel
    #: The request's arguments, canonicalised once at admission.
    args: dict
    digest: str
    report: JobReport
    state: TenantState
    t_submit_engine: float
    t_submit_wall: float
    plan: Any = None
    #: Streaming: the owning stream's admission state (else ``None``).
    stream_state: StreamState | None = None
    label: str = ""
    #: Compile-tier :class:`~repro.compiler.specialize.SpecializedPlan`
    #: when the job was specialized at spawn time (``None`` otherwise).
    splan: Any = None
    #: Observability: the unit's group span while its task group
    #: executes (``None`` when telemetry is off).
    span: Any = None
    tasks: list = field(default_factory=list)
    #: Round outcome: task results in plan order, the logical
    #: ``(total, accurate, approximate, dropped)`` counts, and Joules.
    results: list = field(default_factory=list)
    counts: tuple = (0, 0, 0, 0)
    energy_j: float = 0.0

    @property
    def n_tasks_est(self) -> int:
        return self.plan.n_tasks


class TaskService:
    """The in-process multi-tenant serving core (see module docstring).

    Parameters
    ----------
    config:
        :class:`~repro.config.RuntimeConfig` for the shared scheduler;
        its ``tenants`` field (tenant spec strings) populates the
        tenant table.  Default: GTB Max-Buffer on 16 simulated workers
        (see :data:`DEFAULT_SERVE_CONFIG`).
    tenants:
        Extra tenant specs/instances, merged over ``config.tenants``.
        With neither, a single unmetered ``"standard"`` tenant is
        provisioned.
    cache_capacity:
        LRU capacity of the approximate-result cache.
    cache:
        An already-built cache to use instead of a private
        :class:`~repro.serve.cache.ApproxResultCache` — anything with
        the same ``get`` / ``get_degraded`` / ``put`` / ``stats``
        surface.  The cluster layer injects a per-shard
        :class:`~repro.cluster.cache.CacheView` here so every shard
        reads through one logical sharded cache.
    max_batch:
        Jobs executed per round, drained round-robin across tenants.
    compute_quality:
        Score every executed job against the kernel's accurate
        reference (cached per argument digest).  Turn off when serving
        throughput matters more than reporting.

    Notes
    -----
    The result cache and reference cache are LRU-bounded, and task
    descriptors are recycled through the process
    :class:`~repro.runtime.task.TaskSlab` once a round settles (unless
    the config carries a service-level governor, whose cost priors
    sample ``scheduler.tasks`` and therefore force retention).  The
    shared scheduler still accumulates one task group and its trace
    segments per *executed* job for the run's lifetime (that is what
    makes the final :class:`~repro.runtime.stats.RunReport` and the
    tagged Chrome trace possible).  A service therefore scales to
    campaigns of many thousands of jobs, not to an unbounded daemon
    lifetime — recycle the service (``close()`` + rebuild) between
    campaigns; the cheap admission paths (cache hits, rejections)
    allocate nothing per job.
    """

    def __init__(
        self,
        config: RuntimeConfig | None = None,
        tenants: tuple | list = (),
        *,
        cache_capacity: int = 128,
        cache=None,
        max_batch: int = 8,
        compute_quality: bool = True,
        metrics: MetricsRegistry | None = None,
        spans: SpanRecorder | None = None,
        shard: str | None = None,
    ) -> None:
        if max_batch < 1:
            raise ConfigError(f"max_batch must be >= 1, got {max_batch}")
        self.config = config if config is not None else DEFAULT_SERVE_CONFIG
        # Telemetry plane: when observability is on (the default — see
        # repro.obs), the service owns a private registry and span
        # recorder unless the caller injects shared ones (the cluster
        # shares one pair across every shard).  A private registry is
        # what makes a scrape reconcile exactly with THIS service's run.
        if obs_enabled():
            self._metrics = metrics if metrics is not None else (
                MetricsRegistry()
            )
            self._spans = spans if spans is not None else SpanRecorder()
        else:
            self._metrics = metrics
            self._spans = spans
        self._shard_label = shard if shard is not None else "0"
        specs = list(self.config.build_tenants())
        for extra in tenants:
            specs.append(
                extra
                if isinstance(extra, TenantSpec)
                else _resolve_tenant(extra)
            )
        if not specs:
            from .tenants import make_standard_tenant

            specs = [make_standard_tenant()]
        names = [s.name for s in specs]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate tenant names in {names}")
        self._tenants: dict[str, TenantState] = {
            s.name: TenantState(s) for s in specs
        }
        self.cache = (
            cache
            if cache is not None
            else ApproxResultCache(cache_capacity, metrics=self._metrics)
        )
        self.max_batch = max_batch
        self.compute_quality = compute_quality

        # Descriptor recycling is only sound when nothing samples the
        # scheduler's task list after settlement; a service-level
        # governor does (cost priors), so it forces retention.
        self._sched = Scheduler(
            config=self.config,
            retain_tasks=self.config.governor is not None,
            metrics=self._metrics,
        )
        self._machine = self._sched.machine_model
        self._watts = self._machine.busy_extra_w() + self._machine.core_idle_w
        #: The compile tier (``RuntimeConfig.compile``): admission
        #: knows the per-tenant served ratio, so jobs are specialized
        #: here — the decision folded, variants inlined, bodies cached
        #: per ``(kernel, spec)`` across jobs and rounds.
        self._specializer = self._sched.specializer
        self._queues: dict[str, list[_Admitted]] = {}
        #: ``(tenant, stream)`` -> admission state of that frame lane.
        self._streams: dict[tuple[str, str], StreamState] = {}
        self._rr: list[str] = []  # tenant scan order for round-taking
        self._rr_pos = 0  # persistent round-robin cursor into _rr
        self._kernels: dict[str, ServableKernel] = {}
        # Reference outputs are bounded like the result cache: a
        # long-lived service must not grow one full-size accurate
        # output per distinct argument digest forever.
        self._references: "OrderedDict[tuple[str, str], Any]" = (
            OrderedDict()
        )
        self._references_cap = max(cache_capacity, 8)
        #: Job ids currently queued (duplicate submissions would
        #: collide on the scheduler group label and corrupt per-job
        #: accounting, so they are rejected at admission).
        self._active_ids: set[str] = set()
        #: group label -> {"tenant": ..., "job": ..., "kernel": ...}
        #: (chrome-trace annotation material).
        self.job_meta: dict[str, dict] = {}
        self._seg_cursor = 0
        self._rounds = 0
        self._closed = False
        self.run_report = None

        #: Live spans of queued jobs, keyed by job id; moved onto the
        #: recorder when the job's report turns terminal.
        self._job_spans: dict[str, Any] = {}
        self._bind_metrics()

    def _bind_metrics(self) -> None:
        """Capture metric handles once (no-op-when-disabled guard: the
        hot paths test a single attribute against ``None``)."""
        m = self._metrics
        self._m_jobs = self._m_energy = self._m_latency = None
        self._m_rounds = self._m_anytime = None
        self._m_stream_frames = None
        self._m_stream_degraded = self._m_stream_rejected = None
        if m is None:
            return
        self._m_jobs = m.counter(
            "repro_jobs_total",
            "Terminal job reports by tenant and status.",
            labels=("tenant", "status"),
        )
        self._m_energy = m.counter(
            "repro_tenant_energy_joules_total",
            "Joules billed to each tenant (busy seconds x watts).",
            labels=("tenant",),
        )
        self._m_latency = m.histogram(
            "repro_job_latency_seconds",
            "Wall latency of served (code 200) jobs.",
            labels=("tenant",),
        )
        self._m_rounds = m.counter(
            "repro_serve_rounds_total",
            "Admission rounds executed on the shared engine.",
        )
        self._m_anytime = m.counter(
            "repro_anytime_rounds_total",
            "Anytime refinement rounds executed.",
            labels=("tenant",),
        )
        self._m_stream_frames = m.counter(
            "repro_stream_frames_total",
            "Stream frames admitted (per lane).",
            labels=("tenant", "stream"),
        )
        self._m_stream_degraded = m.counter(
            "repro_stream_degraded_total",
            "Stream frames served degraded under budget pressure.",
            labels=("tenant", "stream"),
        )
        self._m_stream_rejected = m.counter(
            "repro_stream_rejected_total",
            "Stream frames refused (out of order / backpressure).",
            labels=("tenant", "stream"),
        )
        # Budgeted tenants' governors report their control state under
        # this tenant's scope (the run-level governor, when configured,
        # is bound by the Scheduler under scope "_run").
        for name, state in self._tenants.items():
            if state.governor is not None:
                state.governor.obs_bind(m, scope=name)

    def _obs_count(self, report: JobReport) -> None:
        """Count one terminal report."""
        if self._m_jobs is not None:
            self._m_jobs.labels(report.tenant, report.status).inc()
            if report.code == 200:
                self._m_latency.labels(report.tenant).observe(
                    report.wall_latency_s
                )

    def _obs_finish(self, report: JobReport) -> None:
        """Count one terminal report and close its serve-layer span."""
        span = self._job_spans.pop(report.job_id, None)
        if span is not None:
            report.trace_id = span.trace_id
            report.span_id = span.span_id
            span.end(
                self._spans, status=report.status, code=report.code
            )
        self._obs_count(report)

    # -- introspection ---------------------------------------------------
    @property
    def scheduler(self) -> Scheduler:
        """The shared scheduler (observation only)."""
        return self._sched

    @property
    def tenants(self) -> dict[str, TenantState]:
        return self._tenants

    @property
    def pending_jobs(self) -> int:
        return sum(len(q) for q in self._queues.values())

    @property
    def rounds(self) -> int:
        return self._rounds

    @property
    def metrics(self) -> MetricsRegistry | None:
        """This service's metrics registry (``None``: telemetry off)."""
        return self._metrics

    @property
    def span_recorder(self) -> SpanRecorder | None:
        """This service's span sink (``None``: telemetry off)."""
        return self._spans

    @property
    def data_plane_stats(self) -> dict | None:
        """The engine's zero-copy data-plane byte accounting (bytes
        shipped by reference vs copied, promotions), or ``None`` on
        engines without a data plane."""
        stats = getattr(self._sched.engine, "data_plane_stats", None)
        return stats.to_dict() if stats is not None else None

    def stats(self) -> dict:
        """Service-wide digest (the gateway's ``stats`` op)."""
        return {
            "tenants": {
                name: state.summary()
                for name, state in self._tenants.items()
            },
            "streams": {
                f"{tenant}/{stream}": ss.summary()
                for (tenant, stream), ss in self._streams.items()
            },
            "cache": self.cache.stats.to_dict(),
            "pending_jobs": self.pending_jobs,
            "rounds": self._rounds,
            "engine_time_s": self._sched.engine.master_time,
            "engine": str(self.config.engine),
            "policy": self._sched.policy.describe(),
            "data_plane": self.data_plane_stats,
        }

    def collect(self) -> None:
        """Refresh collect-on-scrape gauges from live service state."""
        m = self._metrics
        if m is None:
            return
        shard = self._shard_label
        m.gauge(
            "repro_pending_jobs",
            "Jobs admitted but not yet executed.",
            labels=("shard",),
        ).labels(shard).set(self.pending_jobs)
        m.gauge(
            "repro_engine_time_seconds",
            "The shared engine's own timeline.",
            labels=("shard",),
        ).labels(shard).set(self._sched.engine.master_time)
        ratio_g = m.gauge(
            "repro_tenant_ratio",
            "Served accurate-task ratio per tenant.",
            labels=("tenant", "shard"),
        )
        budget_g = m.gauge(
            "repro_tenant_budget_joules",
            "Lifetime energy budget per tenant (0 = unmetered).",
            labels=("tenant",),
        )
        for name, state in self._tenants.items():
            ratio_g.labels(name, shard).set(state.ratio)
            budget_g.labels(name).set(state.spec.budget_j or 0.0)
        lane_g = m.gauge(
            "repro_stream_inflight",
            "Frames admitted but not yet executed, per stream lane.",
            labels=("tenant", "stream"),
        )
        for (tenant, stream), ss in self._streams.items():
            lane_g.labels(tenant, stream).set(ss.inflight)
        plane = self.data_plane_stats
        if plane is not None:
            bytes_g = m.gauge(
                "repro_data_plane_bytes",
                "Data-plane payload bytes by path.",
                labels=("shard", "path"),
            )
            for path in (
                "bytes_referenced",
                "bytes_copied_in",
                "bytes_copied_out",
                "bytes_pickled",
            ):
                bytes_g.labels(shard, path.removeprefix("bytes_")).set(
                    plane[path]
                )
            m.gauge(
                "repro_data_plane_not_copied_frac",
                "Fraction of payload bytes moved by reference.",
                labels=("shard",),
            ).labels(shard).set(plane["bytes_not_copied_frac"])

    def metrics_snapshot(self) -> dict:
        """Refresh gauges and return the stable-JSON registry snapshot
        (the gateway's ``metrics`` op)."""
        if self._metrics is None:
            raise SchedulerError(
                "telemetry is disabled on this service (REPRO_OBS=0)"
            )
        self.collect()
        return self._metrics.to_dict()

    def metrics_text(self) -> str:
        """Refresh gauges and return Prometheus text exposition."""
        if self._metrics is None:
            raise SchedulerError(
                "telemetry is disabled on this service (REPRO_OBS=0)"
            )
        self.collect()
        return self._metrics.to_prometheus()

    # -- admission -------------------------------------------------------
    def _kernel(self, name: str) -> ServableKernel:
        kernel = self._kernels.get(name)
        if kernel is None:
            kernel = self._kernels[name] = get_servable(name)
        return kernel

    def submit(self, request: JobRequest | dict) -> JobReport:
        """Admit one job.

        Returns a completed :class:`JobReport` for cache-served and
        rejected jobs; a ``status="queued"`` report otherwise — the
        *same object* is filled in by the job's execution round (see
        :meth:`flush`), so callers may simply hold on to it.
        """
        return self._serve_job(request, anytime=False)

    def submit_anytime(
        self,
        request: JobRequest | dict,
        *,
        on_round: Any = None,
    ) -> JobReport:
        """Run one anytime/iterative job to its deadline, synchronously.

        The kernel must expose the anytime surface
        (:class:`~repro.serve.kernels.AnytimeServable`): a mutable
        solution state refined by one task round at a time.  Each round
        spawns the kernel's round plan as its own task group
        (``tenant/job#rN``), settles energy/quality from the round's
        trace window, appends to ``report.round_quality``, and invokes
        ``on_round`` with a :class:`RoundResult` — returning ``False``
        from the callback takes the current answer and stops (the
        "early take").  Iteration also stops when ``deadline_s`` of
        engine time elapses or the tenant's budget runs dry; the report
        always carries the best answer so far, never an error.

        Runs on the caller's thread (the gateway's service thread),
        serialized with :meth:`flush` rounds by construction.
        """
        return self._serve_job(request, anytime=True, on_round=on_round)

    def _serve_job(
        self, request: JobRequest | dict, *, anytime: bool, on_round=None
    ) -> JobReport:
        """Both submit doors: the job's ``serve.job`` span around
        :meth:`_admit` and the shape's continuation (queue a batch job
        or stream frame, or run an anytime job's rounds)."""
        if self._closed:
            raise SchedulerError("service is closed")
        if isinstance(request, dict):
            request = JobRequest.from_dict(request)
        span = None
        if self._spans is not None and (
            request.job_id not in self._job_spans
        ):
            # One serve-layer span per admission: root of the trace
            # unless a gateway/router already opened one upstream.
            span = start_span(
                "serve.job",
                trace_id=request.trace_id,
                parent_id=request.parent_span,
                tenant=request.tenant,
                job=request.job_id,
                kernel=request.kernel,
                **({"anytime": True} if anytime else {}),
            )
            request.trace_id = span.trace_id
            self._job_spans[request.job_id] = span
        report = self._admit(request, anytime=anytime)
        if isinstance(report, _Admitted):
            report = (
                self._run_anytime(report, on_round)
                if anytime
                else self._enqueue(report)
            )
        if report.status != "queued":
            if span is not None:
                # Close only the span THIS admission opened — a
                # duplicate-id rejection must not steal the queued
                # original's live span.
                self._obs_finish(report)
            else:
                self._obs_count(report)
        return report

    def _admit(
        self, request: JobRequest, *, anytime: bool
    ) -> "JobReport | _Admitted":
        """The one admission ladder every job shape climbs.

        The checks run once, in order: unknown tenant (404), duplicate
        id (409), unknown kernel (404), wrong shape (400), bad args
        (400).  Then comes each shape's own tail: stream frames enter
        their lane; batch and anytime jobs meet the tenant's budget and
        queue limits (429), and only batch jobs may fall back to a
        cached answer.  Returns the finished report, or the admitted
        job with its arguments canonicalised once.
        """
        report = JobReport(
            job_id=request.job_id,
            tenant=request.tenant,
            kernel=request.kernel,
            ratio_requested=request.ratio,
        )
        state = self._tenants.get(request.tenant)
        if state is None:
            return self._reject(
                report, None, "rejected-unknown-tenant", 404,
                f"unknown tenant {request.tenant!r}",
            )
        if request.job_id in self._active_ids:
            return self._reject(
                report, state, "rejected-duplicate-id", 409,
                f"job id {request.job_id!r} is already queued",
            )
        try:
            kernel = self._kernel(request.kernel)
        except (RegistryError, ConfigError) as exc:
            return self._reject(
                report, state, "rejected-unknown-kernel", 404, str(exc)
            )
        if anytime and not isinstance(kernel, AnytimeServable):
            return self._reject(
                report, state, "rejected-not-anytime", 400,
                f"kernel {kernel.name!r} has no anytime surface",
            )
        if not anytime and request.anytime:
            return self._reject(
                report, state, "rejected-bad-shape", 400,
                "anytime jobs (rounds > 1 / deadline_s) go through "
                "submit_anytime()",
            )
        try:
            # Canonical args and digest only: the shedding paths below
            # must stay cheap — the full plan (input data and all) is
            # built only for admitted jobs.
            args = kernel.canonical_args(request.args)
        except ConfigError as exc:
            return self._reject(
                report, state, "rejected-bad-args", 400, str(exc)
            )
        adm = _Admitted(
            request=request,
            kernel=kernel,
            args=args,
            digest=kernel.digest(args),
            report=report,
            state=state,
            t_submit_engine=self._sched.engine.master_time,
            t_submit_wall=_time.perf_counter(),
        )
        if request.stream is not None and not anytime:
            return self._admit_frame(adm)
        if state.over_budget or state.saturated:
            reason = "budget" if state.over_budget else "queue"
            entry = None
            if not anytime and state.spec.degrade_to_cache:
                # Load shedding: any same-work answer at or below the
                # requested quality beats burning energy or erroring.
                entry = self.cache.get_degraded(
                    kernel.name, adm.digest, max_ratio=request.ratio
                )
            if entry is not None:
                self._serve_cached(report, state, entry)
                report.detail = f"over-{reason} -> cache"
                return report
            return self._reject(
                report, state, f"rejected-{reason}", 429,
                f"tenant {state.spec.name!r} over energy budget"
                if reason == "budget"
                else f"tenant queue full ({state.spec.max_pending})",
            )
        return adm

    @staticmethod
    def _reject(
        report: JobReport, state: TenantState | None, status: str,
        code: int, detail: str,
    ) -> JobReport:
        """Finish ``report`` as a refusal counted against ``state``."""
        report.status, report.code, report.detail = status, code, detail
        if state is not None:
            state.rejected += 1
        return report

    def _admit_frame(self, adm: _Admitted) -> "JobReport | _Admitted":
        """Admit one frame of an ordered stream.

        Streams have their own admission lane (see :class:`StreamState`):
        out-of-order frames are refused 409-style, a full window pushes
        back 429-style *without consuming the frame index* (the producer
        retries the same frame, preserving order), and budget pressure
        degrades the served ratio in :meth:`flush` instead of shedding.
        A frame with a cached answer at or below the requested ratio is
        served from cache for free, whatever the budget state.
        """
        request, report, state = adm.request, adm.report, adm.state
        key = (request.tenant, request.stream)
        ss = self._streams.get(key)
        if ss is None:
            ss = self._streams[key] = StreamState(
                tenant=request.tenant, stream=request.stream
            )
        frame = request.frame if request.frame is not None else ss.next_frame
        report.stream = request.stream
        report.frame = frame
        refusal = None
        if frame != ss.next_frame:
            refusal = (
                "rejected-out-of-order", 409,
                f"stream {request.stream!r} expects frame "
                f"{ss.next_frame}, got {frame}",
            )
        elif ss.inflight >= ss.max_inflight:
            refusal = (
                "rejected-stream-backpressure", 429,
                f"stream {request.stream!r} window full "
                f"({ss.max_inflight} frames in flight); retry frame "
                f"{frame}",
            )
        if refusal is not None:
            ss.rejected += 1
            if self._m_stream_rejected is not None:
                self._m_stream_rejected.labels(
                    request.tenant, request.stream
                ).inc()
            return self._reject(report, state, *refusal)
        ss.next_frame = frame + 1
        ss.frames += 1
        if self._m_stream_frames is not None:
            self._m_stream_frames.labels(
                request.tenant, request.stream
            ).inc()
        # Identical frames replay from the cache at zero energy — the
        # re-submission path the regression test pins down.
        entry = self.cache.get_degraded(
            adm.kernel.name,
            adm.digest,
            max_ratio=max(request.ratio, state.spec.ratio_floor),
        )
        if entry is not None:
            self._serve_cached(report, state, entry)
            report.detail = f"stream frame {frame} replayed from cache"
            return report
        adm.stream_state = ss
        return adm

    def _enqueue(self, adm: _Admitted) -> JobReport:
        adm.plan = adm.kernel.plan(adm.args)
        self._seed_energy_model(adm.state, adm.plan)
        tenant = adm.request.tenant
        if tenant not in self._queues:
            self._queues[tenant] = []
            self._rr.append(tenant)
        self._queues[tenant].append(adm)
        self._active_ids.add(adm.request.job_id)
        if adm.stream_state is None:
            # Stream frames count against their stream's window, not
            # the tenant's batch queue cap.
            adm.state.pending += 1
        else:
            adm.stream_state.inflight += 1
        return adm.report

    def _seed_energy_model(self, state: TenantState, plan) -> None:
        """Seed a governed tenant's energy model from one plan's
        analytic per-task cost, so the very first governor step has
        something to project with."""
        if state.governor is None or state.e_acc_j is not None:
            return
        cost = plan.cost
        if callable(cost) and not isinstance(cost, TaskCost):
            cost = cost(*plan.args_list[0]) if plan.args_list else None
        if not isinstance(cost, TaskCost):
            cost = TaskCost(0.0)
        ops = self._machine.ops_per_second
        state.e_acc_j = cost.accurate / ops * self._watts
        state.e_apx_j = cost.approximate / ops * self._watts

    def _serve_cached(self, report, state: TenantState, entry) -> None:
        exact = entry.ratio >= report.ratio_requested
        report.status = "cached" if exact else "cached-degraded"
        report.code = 200
        report.ratio_served = entry.ratio
        report.quality = entry.quality
        report.output = entry.output
        report.energy_j = 0.0
        if exact:
            state.cached += 1
        else:
            state.cached_degraded += 1

    # -- execution rounds -------------------------------------------------
    def _take_round(self) -> list[_Admitted]:
        """Up to ``max_batch`` queued jobs, round-robin across tenants.

        The cursor persists across rounds, so a ``max_batch`` that
        truncates mid-pass resumes at the next tenant instead of
        restarting the scan — no tenant is systematically favored for
        having registered first.
        """
        batch: list[_Admitted] = []
        names = self._rr
        if not names:
            return batch
        pos = self._rr_pos
        empty_streak = 0
        while len(batch) < self.max_batch and empty_streak < len(names):
            name = names[pos % len(names)]
            pos += 1
            queue = self._queues.get(name)
            if queue:
                batch.append(queue.pop(0))
                empty_streak = 0
            else:
                empty_streak += 1
        self._rr_pos = pos % len(names)
        return batch

    def _queued_tasks(self, tenant: str) -> int:
        return sum(
            a.n_tasks_est for a in self._queues.get(tenant, ())
        )

    def flush(self) -> list[JobReport]:
        """Execute one admission round on the shared engine.

        Steers every budgeted tenant's governor against its queued
        work, re-checks the cache at the ratio each job will actually
        be served at, spawns the remainder as per-job task groups in
        one batch, and settles reports/budgets from the round's trace
        window.  Returns the round's completed reports.
        """
        if self._closed:
            raise SchedulerError("service is closed")
        batch = self._take_round()
        if not batch:
            return []
        now = self._sched.engine.master_time

        # Pre-steer: the governor solve needs the tasks this round will
        # issue to still count as "remaining", so it runs before spawn.
        in_round: dict[str, int] = {}
        for adm in batch:
            in_round[adm.request.tenant] = (
                in_round.get(adm.request.tenant, 0) + adm.n_tasks_est
            )
        for name, extra in in_round.items():
            state = self._tenants[name]
            if state.governor is not None:
                state.steer(now, self._queued_tasks(name) + extra)

        to_run: list[_Admitted] = []
        leaders: dict[tuple, _Admitted] = {}
        followers: list[tuple[_Admitted, _Admitted]] = []
        for adm in batch:
            state = adm.state
            if adm.stream_state is None:
                state.pending -= 1
            else:
                adm.stream_state.inflight -= 1
            self._active_ids.discard(adm.request.job_id)
            requested = adm.request.ratio
            effective = state.served_ratio(requested)
            if adm.stream_state is not None and state.over_budget:
                # The streaming contract: an over-budget tenant's
                # frames degrade to the floor of their quality band,
                # they are never dropped mid-stream.
                effective = max(
                    state.spec.ratio_floor, STREAM_MIN_RATIO
                )
                adm.report.detail = (
                    f"over-budget: frame degraded to ratio "
                    f"{effective:g}, not dropped"
                )
                adm.stream_state.degraded += 1
                if self._m_stream_degraded is not None:
                    self._m_stream_degraded.labels(
                        adm.request.tenant, adm.request.stream
                    ).inc()
            adm.report.ratio_served = effective
            # The round's cache window: an entry at least as accurate
            # as we would execute, and no more accurate than we would
            # serve, answers the job for free.  The upper bound must
            # cover ``effective`` too: a ratio floor above the request
            # would otherwise make the band empty and re-execute
            # identical re-submitted frames forever.
            entry = self.cache.get_degraded(
                adm.kernel.name,
                adm.digest,
                max_ratio=max(requested, effective),
                min_ratio=effective,
            )
            if entry is not None:
                self._serve_cached(adm.report, state, entry)
                self._finish_latency(adm, now)
                self._obs_finish(adm.report)
                continue
            # In-round coalescing: identical work at the same served
            # ratio executes once; the leader is billed, followers ride
            # along for free (the batch-dedupe twin of the cache).
            work_key = (adm.kernel.name, adm.digest, _ratio_key(effective))
            leader = leaders.get(work_key)
            if leader is not None:
                followers.append((adm, leader))
                continue
            leaders[work_key] = adm
            meta = {
                "tenant": adm.request.tenant,
                "job": adm.request.job_id,
                "kernel": adm.kernel.name,
            }
            if adm.request.stream is not None:
                # Chrome traces distinguish job shapes: stream frames
                # carry their lane and frame index in group_meta.
                meta["stream"] = adm.request.stream
                meta["frame"] = adm.report.frame
            self._open_unit(
                adm,
                f"{adm.request.tenant}/{adm.request.job_id}",
                meta,
                "runtime.group",
            )
            if self._specializer is not None:
                # The served ratio is decided here, so this is where
                # the compile tier folds the significance branch away;
                # a None return (unspecializable body) falls back to
                # the interpreted spawn path.
                adm.splan = self._specializer.specialize_plan(
                    adm.kernel.name,
                    adm.plan,
                    ratio=effective,
                    n_chunks=self.config.n_workers,
                )
                if adm.splan is not None:
                    meta["specialized"] = True
                    meta["n_chunks"] = adm.splan.n_chunks
            to_run.append(adm)

        t_end = self._run_round(to_run)
        for adm in to_run:
            report = adm.report
            report.status = "executed"
            report.code = 200
            (
                report.tasks_total,
                report.accurate,
                report.approximate,
                report.dropped,
            ) = adm.counts
            report.energy_j = adm.energy_j
            report.output = adm.kernel.combine(adm.args, adm.results)
            if self.compute_quality:
                report.quality = adm.kernel.quality(
                    self._reference(adm.kernel, adm.digest, adm.args),
                    report.output,
                )
            self._finish_latency(adm, t_end)
            adm.state.executed += 1
            self.cache.put(
                adm.kernel.name,
                adm.digest,
                report.ratio_served,
                report.output,
                quality=report.quality,
                energy_j=adm.energy_j,
            )
            self._obs_finish(report)
        for adm, leader in followers:
            led = leader.report
            report = adm.report
            report.status = "coalesced"
            report.code = 200
            report.ratio_served = led.ratio_served
            report.quality = led.quality
            report.output = led.output
            report.energy_j = 0.0
            report.detail = f"coalesced with {led.job_id}"
            self._finish_latency(adm, t_end)
            adm.state.coalesced += 1
            self._obs_finish(report)
        self._rounds += 1
        if self._m_rounds is not None:
            self._m_rounds.inc()
        return [adm.report for adm in batch]

    def _finish_latency(self, adm: _Admitted, t_end: float) -> None:
        adm.report.latency_s = max(0.0, t_end - adm.t_submit_engine)
        adm.report.wall_latency_s = max(
            0.0, _time.perf_counter() - adm.t_submit_wall
        )

    def _open_unit(
        self, adm: _Admitted, label: str, meta: dict, span_name: str,
        **span_attrs,
    ) -> None:
        """Name one round unit: its task-group label, its chrome-trace
        ``job_meta`` row, and its group span under the job's span."""
        adm.label = label
        self.job_meta[label] = meta
        jspan = self._job_spans.get(adm.request.job_id)
        if jspan is not None:
            adm.span = jspan.child(span_name, label=label, **span_attrs)
            meta["trace_id"] = jspan.trace_id
            meta["span_id"] = adm.span.span_id

    def _window_busy(self) -> dict[tuple[str, Any], float]:
        """Per-(group, kind) busy seconds since the last window, and
        advance the window cursor."""
        segments = self._sched.engine.accounting.trace.segments
        busy: dict[tuple[str, Any], float] = {}
        for seg in segments[self._seg_cursor:]:
            key = (seg.group, seg.kind)
            busy[key] = busy.get(key, 0.0) + seg.duration
        self._seg_cursor = len(segments)
        return busy

    def _run_round(self, units: list[_Admitted]) -> float:
        """The round executor every job shape runs on.

        Each unit arrives with its group ``label``, its served ratio
        (``report.ratio_served``), a ``plan`` or compile-tier
        ``splan``, and its open group ``span``.  The executor opens
        every unit's task group, spawns the lot, waits once, and
        carves the round's trace window into per-unit outcomes: it
        charges each tenant, feeds its energy model, closes the group
        span and recycles the task descriptors.  Each unit leaves with
        ``results`` (in plan order), ``counts`` (logical total,
        accurate, approximate, dropped) and ``energy_j``.  Returns the
        engine time the round ended at.
        """
        sched = self._sched
        if not units:
            return sched.engine.master_time
        for u in units:
            sched.init_group(u.label, u.report.ratio_served)
            if u.splan is not None:
                u.tasks = sched.spawn_specialized(u.splan, label=u.label)
            else:
                plan = u.plan
                u.tasks = sched.spawn_many(
                    plan.fn,
                    plan.args_list,
                    significance=plan.significance,
                    approxfun=plan.approxfun,
                    label=u.label,
                    cost=plan.cost,
                )
        t_end = sched.taskwait()
        busy = self._window_busy()
        per_tenant: dict[str, dict[str, list[float]]] = {}
        for u in units:
            busy_acc = busy.get((u.label, ExecutionKind.ACCURATE), 0.0)
            busy_apx = busy.get((u.label, ExecutionKind.APPROXIMATE), 0.0)
            splan = u.splan
            if splan is not None:
                # Specialized chunks all execute as forced-accurate
                # tasks; apportion the job's busy time by the plan's
                # per-kind work shares so the tenant's e_acc/e_apx
                # energy models stay calibrated.  Counts are the
                # *logical* ones from the folded decision vector, and
                # chunk results scatter back to element order.
                w_tot = splan.work_acc + splan.work_apx
                if w_tot > 0.0:
                    busy_tot = busy_acc + busy_apx
                    busy_acc = busy_tot * (splan.work_acc / w_tot)
                    busy_apx = busy_tot - busy_acc
                u.counts = (
                    splan.n_tasks,
                    splan.accurate,
                    splan.approximate,
                    splan.dropped,
                )
                u.results = splan.gather([t.result for t in u.tasks])
            else:
                group = sched.groups.get(u.label)
                u.counts = (
                    group.spawned,
                    group.accurate_count,
                    group.approx_count,
                    group.dropped_count,
                )
                u.results = [t.result for t in u.tasks]
            u.energy_j = (busy_acc + busy_apx) * self._watts
            u.state.charge(u.energy_j)
            if self._m_energy is not None:
                self._m_energy.labels(u.request.tenant).inc(u.energy_j)
            total, accurate, approximate, dropped = u.counts
            if u.span is not None:
                u.span.end(
                    self._spans,
                    tasks=total,
                    accurate=accurate,
                    approximate=approximate,
                    dropped=dropped,
                    energy_j=u.energy_j,
                )
            bucket = per_tenant.setdefault(
                u.request.tenant,
                {"acc": [0.0, 0], "apx": [0.0, 0]},
            )
            bucket["acc"][0] += busy_acc
            bucket["acc"][1] += accurate
            bucket["apx"][0] += busy_apx
            # Dropped tasks cost (and would cost) nothing; fold them in
            # with the approximate basket so e_apx reflects "what a
            # degraded task costs" on this tenant's mix.
            bucket["apx"][1] += approximate + dropped

        for name, buckets in per_tenant.items():
            state = self._tenants[name]
            for kind, (busy_s, count) in buckets.items():
                state.observe_energy(kind, busy_s, count, self._watts)

        # Shallow-profiler landing: per-callee wall timings of every
        # profiled specialized body, windowed to this round and written
        # into the job's group_meta so the chrome trace carries them.
        if self._specializer is not None and getattr(
            self._specializer, "profile", False
        ):
            from ..compiler.specialize import profile_snapshot

            prof_by_kernel: dict[str, dict] = {}
            for u in units:
                if u.splan is None:
                    continue
                name = u.kernel.name
                if name not in prof_by_kernel:
                    prof_by_kernel[name] = profile_snapshot(
                        kernel=name, clear=True
                    )
                if prof_by_kernel[name]:
                    self.job_meta[u.label]["profile"] = (
                        prof_by_kernel[name]
                    )

        # Results are harvested: recycle the round's descriptors so a
        # long-lived service does not grow one Task per executed job
        # forever.
        if not sched.retains_tasks:
            for u in units:
                sched.release_tasks(u.tasks)
                u.tasks = []
        return t_end

    def _reference(
        self,
        kernel: ServableKernel,
        digest: str,
        args,
        anytime: bool = False,
    ):
        """LRU-cached accurate reference output for one argument set.

        Anytime references (the *converged* answer, not the one-shot
        batch reference) are cached under a distinct key — the two are
        different artifacts with different quality baselines.
        """
        key = (kernel.name, digest, "anytime") if anytime else (
            kernel.name, digest
        )
        ref = self._references.get(key)
        if ref is None:
            ref = self._references[key] = (
                kernel.anytime_reference(args)
                if anytime
                else kernel.reference(args)
            )
            while len(self._references) > self._references_cap:
                self._references.popitem(last=False)
        else:
            self._references.move_to_end(key)
        return ref

    # -- anytime / iterative jobs ------------------------------------------
    def _run_anytime(self, adm: _Admitted, on_round) -> JobReport:
        """Refine one admitted anytime job round by round (see
        :meth:`submit_anytime`); each round is one unit of
        :meth:`_run_round`."""
        request, kernel, args = adm.request, adm.kernel, adm.args
        state, report = adm.state, adm.report
        rounds = request.rounds
        astate = kernel.anytime_state(args)
        reference = (
            self._reference(kernel, adm.digest, args, anytime=True)
            if self.compute_quality
            else None
        )
        t_end = adm.t_submit_engine
        metas: list[dict] = []
        for r in range(rounds):
            if r > 0 and state.over_budget:
                report.detail = f"budget exhausted after {r} rounds"
                break
            adm.plan = kernel.anytime_plan(args, astate)
            if state.governor is not None:
                self._seed_energy_model(state, adm.plan)
                state.steer(
                    self._sched.engine.master_time,
                    adm.plan.n_tasks * (rounds - r),
                )
            report.ratio_served = state.served_ratio(request.ratio)
            metas.append({
                "tenant": request.tenant,
                "job": request.job_id,
                "kernel": kernel.name,
                "round": r,
                "rounds": rounds,
            })
            self._open_unit(
                adm,
                f"{request.tenant}/{request.job_id}#r{r}",
                metas[-1],
                "runtime.round",
                round=r,
            )
            t_end = self._run_round([adm])
            if self._m_anytime is not None:
                self._m_anytime.labels(request.tenant).inc()
            astate = kernel.anytime_update(args, astate, adm.results)
            output = kernel.anytime_output(args, astate)
            quality = (
                kernel.quality(reference, output)
                if self.compute_quality
                else None
            )
            total, accurate, approximate, dropped = adm.counts
            report.tasks_total += total
            report.accurate += accurate
            report.approximate += approximate
            report.dropped += dropped
            report.energy_j += adm.energy_j
            report.output = output
            report.quality = quality
            report.rounds_run = r + 1
            report.round_quality.append(quality)
            elapsed = t_end - adm.t_submit_engine
            if on_round is not None:
                verdict = on_round(
                    RoundResult(
                        round=r,
                        output=output,
                        quality=quality,
                        energy_j=adm.energy_j,
                        elapsed_s=elapsed,
                        ratio=report.ratio_served,
                    )
                )
                if verdict is False:
                    report.detail = f"early take after round {r + 1}"
                    break
            if (
                request.deadline_s is not None
                and elapsed >= request.deadline_s
                and r + 1 < rounds
            ):
                report.detail = (
                    f"deadline {request.deadline_s:g}s hit after "
                    f"round {r + 1}"
                )
                break
        report.status = "executed"
        report.code = 200
        self._finish_latency(adm, t_end)
        state.executed += 1
        # Stamp the final round count into every round's group_meta so
        # a chrome trace shows "round 2 of 3 run" without the span log.
        for meta in metas:
            meta["rounds_run"] = report.rounds_run
        return report

    # -- trace export ------------------------------------------------------
    def write_trace(self, path: str | Path) -> Path:
        """Chrome-trace export of the whole serve run, events tagged
        with tenant/job/kernel ids (one timeline for the service).

        Run-level metadata — the shared-memory data plane's byte
        accounting, when the engine has one — rides along under the
        ``__run__`` meta key and lands in the trace's ``otherData``.
        """
        from ..sim.chrome_trace import write_chrome_trace

        meta = dict(self.job_meta)
        dp = self.data_plane_stats
        if dp is not None:
            meta["__run__"] = {"data_plane": dp}
        return write_chrome_trace(
            self._sched.engine.accounting.trace,
            path,
            group_meta=meta,
        )

    # -- lifecycle ---------------------------------------------------------
    def close(self):
        """Drain remaining rounds, finish the shared run, and return
        the canonical :class:`~repro.runtime.stats.RunReport`."""
        if self._closed:
            return self.run_report
        while self.pending_jobs:
            self.flush()
        self.run_report = self._sched.finish()
        self._closed = True
        return self.run_report

    def __enter__(self) -> "TaskService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()


def _resolve_tenant(spec: Any) -> TenantSpec:
    from ..registry import resolve

    tenant = resolve("tenant", spec)
    if not isinstance(tenant, TenantSpec):
        raise ConfigError(
            f"tenant spec {spec!r} resolved to "
            f"{type(tenant).__name__}, not a TenantSpec"
        )
    return tenant


def _gateway_service(service, kwargs: dict) -> ServiceProtocol:
    """A gateway's backing service: ``service`` when it implements
    :class:`ServiceProtocol`, else a new :class:`TaskService`."""
    if service is None:
        return TaskService(**kwargs)
    if not isinstance(service, ServiceProtocol):
        raise ConfigError(
            f"{type(service).__name__} does not implement "
            "ServiceProtocol (submit/submit_anytime/flush/pending_jobs/"
            "stats/metrics_snapshot/metrics_text/span_recorder/close)"
        )
    return service


def _frame(response: dict) -> bytes:
    """One JSON-lines protocol frame."""
    return (json.dumps(response) + "\n").encode("utf-8")


class LocalGateway:
    """Synchronous in-process facade over any :class:`ServiceProtocol`.

    The test/bench front end: submit jobs, drain rounds, get reports —
    no sockets, no event loop.  Works identically over a single-node
    :class:`TaskService` and a sharded
    :class:`~repro.cluster.service.ClusterService`.
    """

    def __init__(
        self, service: ServiceProtocol | None = None, **kwargs
    ) -> None:
        self.service = _gateway_service(service, kwargs)

    def submit(self, request: JobRequest | dict) -> JobReport:
        """Admit one job (completed immediately when cache/rejection
        answers it; otherwise finished by the next :meth:`drain`)."""
        return self.service.submit(request)

    def submit_anytime(
        self, request: JobRequest | dict, *, on_round=None
    ) -> JobReport:
        """Run one anytime job to completion (see
        :meth:`TaskService.submit_anytime`)."""
        return self.service.submit_anytime(request, on_round=on_round)

    def drain(self) -> int:
        """Run execution rounds until the queue is empty."""
        rounds = 0
        while self.service.pending_jobs:
            self.service.flush()
            rounds += 1
        return rounds

    def submit_many(
        self, requests: list[JobRequest | dict]
    ) -> list[JobReport]:
        """Submit a stream of jobs and run it to completion."""
        reports = [self.service.submit(r) for r in requests]
        self.drain()
        return reports

    def stats(self) -> dict:
        return self.service.stats()

    def close(self):
        return self.service.close()

    def __enter__(self) -> "LocalGateway":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()


class ServeServer:
    """Asyncio JSON-lines-over-TCP gateway around any
    :class:`ServiceProtocol` (a :class:`TaskService` by default).

    Protocol: one JSON object per line.

    * ``{"op": "submit", "tenant": ..., "kernel": ..., "args": {...},
      "ratio": 0.8}`` → ``{"ok": true, "job": {...}}`` once the job
      settles (cache/rejection immediately; executed jobs after their
      round).
    * ``{"op": "stats"}`` → ``{"ok": true, "stats": {...}}``
    * ``{"op": "metrics"}`` → ``{"ok": true, "metrics": {...}}`` (the
      registry's stable-JSON snapshot); ``{"op": "metrics", "format":
      "prometheus"}`` → ``{"ok": true, "text": "..."}`` in Prometheus
      text exposition format.  Scrapes run on the worker thread, so
      they are serialized against rounds and reconcile with reports.
    * ``{"op": "ping"}`` → ``{"ok": true, "pong": true}``

    All service state is touched from a single worker thread (the
    scheduler is not thread-safe); the event loop only parses frames
    and parks submitters on futures.  Rounds form by batching whatever
    arrived within ``batch_window_s``.
    """

    def __init__(
        self,
        service: ServiceProtocol | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        batch_window_s: float = 0.01,
        **service_kwargs,
    ) -> None:
        self.service = _gateway_service(service, service_kwargs)
        self.host = host
        self.port = port
        self.batch_window_s = batch_window_s
        self._server = None
        self._flusher = None
        self._executor = None
        self._futures: dict[str, Any] = {}
        self._wake = None

    # -- lifecycle -------------------------------------------------------
    async def start(self) -> tuple[str, int]:
        """Bind and start serving; returns the bound (host, port)."""
        import asyncio
        from concurrent.futures import ThreadPoolExecutor

        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-serve"
        )
        self._wake = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port, limit=_LINE_LIMIT
        )
        sock = self._server.sockets[0].getsockname()
        self.host, self.port = sock[0], sock[1]
        self._flusher = asyncio.ensure_future(self._flush_loop())
        return self.host, self.port

    async def close(self) -> None:
        import asyncio

        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._flusher is not None:
            self._flusher.cancel()
            try:
                await self._flusher
            except asyncio.CancelledError:
                pass
            self._flusher = None
        # Waiters still parked on queued jobs get an error frame, not a
        # connection that silently hangs until their socket timeout.
        self._fail_pending(RuntimeError("serve gateway shut down"))
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def _fail_pending(self, exc: BaseException) -> None:
        futures, self._futures = self._futures, {}
        for future in futures.values():
            if not future.done():
                future.set_exception(exc)

    async def _call(self, fn, *args):
        import asyncio

        loop = asyncio.get_event_loop()
        return await loop.run_in_executor(self._executor, fn, *args)

    async def _flush_loop(self) -> None:
        import asyncio

        while True:
            await self._wake.wait()
            self._wake.clear()
            # Let a round's worth of submissions accumulate.
            await asyncio.sleep(self.batch_window_s)
            # Loop on flush()'s own emptiness signal: every touch of
            # service state happens on the worker thread (submit may
            # be mutating the queues concurrently with this loop).
            while True:
                try:
                    reports = await self._call(self.service.flush)
                except asyncio.CancelledError:
                    raise
                except Exception as exc:
                    # A failing round (e.g. a broken process pool) must
                    # not kill the flusher silently and wedge every
                    # waiter: fail the parked submitters — their
                    # dispatch coroutines turn this into error frames —
                    # and keep serving.
                    self._fail_pending(exc)
                    break
                if not reports:
                    break
                for report in reports:
                    future = self._futures.pop(report.job_id, None)
                    if future is not None and not future.done():
                        future.set_result(report)

    # -- connection handling ----------------------------------------------
    async def _handle(self, reader, writer) -> None:
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    # Over the stream limit: the line's framing is lost,
                    # so answer once, half-close, and discard the rest
                    # of the input until the client closes — closing
                    # with unread input would reset the connection and
                    # could destroy the error frame in flight.
                    writer.write(_frame({
                        "ok": False,
                        "error": "request line exceeds the "
                        f"{_LINE_LIMIT}-byte limit",
                    }))
                    writer.write_eof()
                    await writer.drain()
                    while await reader.read(_LINE_LIMIT):
                        pass
                    break
                if not line:
                    break
                response = await self._dispatch(line)
                writer.write(_frame(response))
                await writer.drain()
        finally:
            writer.close()

    def _submit_sync(self, request: JobRequest) -> tuple[JobReport, bool]:
        """Worker-thread submit returning a queued-ness snapshot.

        The snapshot is taken on the service thread, where it is
        serialized against flush rounds — the event loop must never
        read ``report.status`` while a round may be mutating it.
        Anytime-shaped requests run their rounds right here on the
        service thread and come back settled (never queued).
        """
        if request.anytime:
            return self.service.submit_anytime(request), False
        report = self.service.submit(request)
        return report, report.status == "queued"

    async def _dispatch(self, line: bytes) -> dict:
        import asyncio

        try:
            message = json.loads(line)
            op = message.get("op", "submit")
            if op == "ping":
                return {"ok": True, "pong": True}
            if op == "stats":
                stats = await self._call(self.service.stats)
                return {"ok": True, "stats": stats}
            if op == "metrics":
                fmt = message.get("format", "json")
                as_text = fmt in ("prometheus", "text")
                body = await self._call(
                    self.service.metrics_text
                    if as_text
                    else self.service.metrics_snapshot
                )
                return {"ok": True, ("text" if as_text else "metrics"): body}
            if op != "submit":
                return {"ok": False, "error": f"unknown op {op!r}"}
            payload = {
                k: v for k, v in message.items() if k != "op"
            }
            request = JobRequest.from_dict(payload)
            if request.job_id in self._futures:
                return {
                    "ok": False,
                    "error": f"job id {request.job_id!r} is already "
                    "in flight on this gateway",
                }
            # The gateway is the outermost instrumented layer: a
            # request arriving without a trace gets its root span here,
            # covering the full wire-to-settled wall time of the op.
            recorder = self.service.span_recorder
            gspan = None
            if recorder is not None and request.trace_id is None:
                gspan = start_span(
                    "gateway.request",
                    tenant=request.tenant,
                    job=request.job_id,
                    op="submit",
                )
                request.trace_id = gspan.trace_id
                request.parent_span = gspan.span_id
            # Register the waiter *before* the service sees the job:
            # the flusher may settle the round (and try to resolve the
            # future) before this coroutine gets scheduled again.
            future = asyncio.get_event_loop().create_future()
            self._futures[request.job_id] = future
            try:
                report, queued = await self._call(
                    self._submit_sync, request
                )
                if queued:
                    self._wake.set()
                    report = await future
                else:
                    self._futures.pop(request.job_id, None)
            except BaseException:
                self._futures.pop(request.job_id, None)
                raise
            if gspan is not None:
                gspan.end(
                    recorder, status=report.status, code=report.code
                )
            return {"ok": report.ok, "job": report.to_dict()}
        except Exception as exc:
            return {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
