"""``repro.serve`` — async, multi-tenant significance-aware serving.

The serving subsystem: a long-lived :class:`TaskService` multiplexing
every tenant's jobs onto one shared execution engine, per-tenant
admission control and energy budgets (:mod:`repro.serve.tenants`), an
approximate-result cache that degrades answers instead of shedding them
(:mod:`repro.serve.cache`), servable kernels
(:mod:`repro.serve.kernels`), a JSON-lines TCP gateway
(:class:`ServeServer`) with sync/async clients
(:mod:`repro.serve.client`), and the scenario conformance harness
(:mod:`repro.serve.scenarios`) that pins the serving claims.

Importing this package registers the ``"tenant"`` and ``"servable"``
registry families.
"""

from typing import Any, Protocol, runtime_checkable


@runtime_checkable
class ServiceProtocol(Protocol):
    """The structural contract every task service front-end implements.

    Both the single-node :class:`TaskService` and the sharded
    :class:`~repro.cluster.service.ClusterService` satisfy this
    protocol, and the gateways (:class:`LocalGateway`,
    :class:`ServeServer`) are typed against it rather than duck-typing
    a concrete service — swapping a node for a cluster behind a
    gateway is a constructor-argument change.

    The protocol is ``runtime_checkable`` so wiring code can validate
    a service object up front (``isinstance(svc, ServiceProtocol)``);
    as with all runtime-checkable protocols, the check sees method
    *presence*, not signatures.
    """

    def submit(self, request: Any) -> Any:
        """Admit one job; returns its :class:`JobReport` (``queued``
        until the round that executes it fills it in)."""
        ...

    def submit_anytime(self, request: Any, *, on_round: Any = None) -> Any:
        """Run one anytime job to completion; returns its report."""
        ...

    def flush(self) -> list[Any]:
        """Run one execution round; returns the reports it settled."""
        ...

    @property
    def pending_jobs(self) -> int:
        """Jobs admitted but not yet settled."""
        ...

    def stats(self) -> dict[str, Any]:
        """Service-level counters (schema owned by the implementation)."""
        ...

    def metrics_snapshot(self) -> dict[str, Any]:
        """Stable-JSON snapshot of the service's metrics registry."""
        ...

    def metrics_text(self) -> str:
        """Prometheus text exposition of the same registry."""
        ...

    @property
    def span_recorder(self) -> Any:
        """The service's span sink (``None`` when telemetry is off)."""
        ...

    def close(self) -> None:
        """Settle outstanding work and release resources (idempotent)."""
        ...


from .cache import ApproxResultCache, CacheEntry, CacheStats
from .client import AsyncServeClient, ServeClient, ServeClientError
from .kernels import (
    AnytimeServable,
    FluidanimateServable,
    MonteCarloPiServable,
    ServableKernel,
    SobelServable,
    TaskPlan,
    get_servable,
    servable_names,
)
from .server import (
    DEFAULT_SERVE_CONFIG,
    STREAM_MIN_RATIO,
    STREAM_WINDOW,
    JobReport,
    JobRequest,
    LocalGateway,
    RoundResult,
    ServeServer,
    StreamState,
    TaskService,
)
from .tenants import TenantSpec, TenantState

__all__ = [
    "ServiceProtocol",
    "TaskService",
    "LocalGateway",
    "ServeServer",
    "JobRequest",
    "JobReport",
    "RoundResult",
    "StreamState",
    "DEFAULT_SERVE_CONFIG",
    "STREAM_WINDOW",
    "STREAM_MIN_RATIO",
    "TenantSpec",
    "TenantState",
    "ApproxResultCache",
    "CacheEntry",
    "CacheStats",
    "ServableKernel",
    "AnytimeServable",
    "SobelServable",
    "MonteCarloPiServable",
    "FluidanimateServable",
    "TaskPlan",
    "get_servable",
    "servable_names",
    "ServeClient",
    "AsyncServeClient",
    "ServeClientError",
]
