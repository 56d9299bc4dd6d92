"""Tenants: admission control and energy budgets for the serving layer.

A *tenant* is one consumer of the shared significance-aware service —
the EXCESS framing of the paper's runtime as long-lived infrastructure.
Each tenant carries

* an **admission contract** (:class:`TenantSpec`): how many jobs may sit
  in its queue (``max_pending``), how far the service may degrade its
  accurate-task ratio (``ratio_floor``), whether a lower-ratio cached
  result is an acceptable answer under pressure, and an optional
  lifetime **energy budget** in Joules;
* **runtime state** (:class:`TenantState`): Joules spent so far,
  measured per-task energy, job counters, and a per-tenant
  :class:`~repro.tuning.governor.EnergyBudgetGovernor` steering the
  tenant's served ratio via
  :meth:`~repro.tuning.governor.EnergyBudgetGovernor.control_step` —
  the same deadbeat projection that governs single runs, here fed
  per-tenant measurements by the service instead of engine ticks.

Specs live in the ``"tenant"`` registry family (``"premium"``,
``"standard"``, ``"free"``) so a whole multi-tenant service is
describable from :class:`~repro.config.RuntimeConfig` with plain
strings: ``tenants=("premium:name='alice'",
"free:name='bob',budget_j=2.0")``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..registry import register
from ..runtime.errors import ConfigError
from ..tuning.governor import EnergyBudgetGovernor

__all__ = ["TenantSpec", "TenantState", "TIER_DEFAULTS"]

#: EWMA weight of a new per-task energy observation.
_ENERGY_ALPHA = 0.5


@dataclass(frozen=True)
class TenantSpec:
    """The admission contract of one tenant (plain data, registry-made).

    Parameters
    ----------
    name:
        Tenant identity; jobs address tenants by this name.
    tier:
        The registry tier the spec was built from (cosmetic).
    budget_j:
        Lifetime energy budget in Joules on the service's accounting
        (``None`` = unmetered).  Once spent, new work is only served
        from the cache — fresh execution is rejected 429-style.
    max_pending:
        Queue cap: jobs admitted but not yet executed.  Beyond it the
        service sheds load (cache or reject).
    ratio_floor:
        Quality guarantee: the served accurate ratio never drops below
        this, however tight the budget.
    degrade_to_cache:
        Whether a *lower-ratio* cached result is an acceptable answer
        when the tenant is over budget or its queue is saturated.
    smoothing:
        Governor smoothing for this tenant's ratio controller.
    """

    name: str
    tier: str = "standard"
    budget_j: float | None = None
    max_pending: int = 64
    ratio_floor: float = 0.0
    degrade_to_cache: bool = True
    smoothing: float = 0.7

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ConfigError(f"tenant needs a name, got {self.name!r}")
        if self.budget_j is not None and self.budget_j <= 0:
            raise ConfigError(
                f"tenant budget must be > 0 J, got {self.budget_j}"
            )
        if self.max_pending < 1:
            raise ConfigError(
                f"max_pending must be >= 1, got {self.max_pending}"
            )
        if not 0.0 <= self.ratio_floor <= 1.0:
            raise ConfigError(
                f"ratio_floor must be in [0, 1], got {self.ratio_floor}"
            )

    def replace(self, **changes) -> "TenantSpec":
        return replace(self, **changes)


#: Per-tier defaults behind the registry factories.
TIER_DEFAULTS: dict[str, dict] = {
    "premium": {"max_pending": 256, "ratio_floor": 0.7},
    "standard": {"max_pending": 64, "ratio_floor": 0.3},
    "free": {"max_pending": 8, "ratio_floor": 0.0},
}


def _tier_factory(tier: str):
    defaults = TIER_DEFAULTS[tier]

    def make(name: str | None = None, **kwargs) -> TenantSpec:
        merged = {**defaults, **kwargs}
        return TenantSpec(name=name or tier, tier=tier, **merged)

    make.__name__ = f"make_{tier}_tenant"
    make.__qualname__ = make.__name__
    make.__doc__ = (
        f"Registry factory: a {tier!r}-tier :class:`TenantSpec` "
        f"(defaults {defaults}) with field overrides."
    )
    return make


make_premium_tenant = register("tenant", "premium")(_tier_factory("premium"))
make_standard_tenant = register("tenant", "standard", "default")(
    _tier_factory("standard")
)
make_free_tenant = register("tenant", "free")(_tier_factory("free"))


class TenantState:
    """Live serving state of one tenant inside a ``TaskService``."""

    def __init__(self, spec: TenantSpec) -> None:
        self.spec = spec
        self.spent_j = 0.0
        #: Jobs admitted but not yet executed (queue-cap universe).
        self.pending = 0
        # Outcome counters, keyed by JobReport status strings.
        self.executed = 0
        self.cached = 0
        self.cached_degraded = 0
        self.coalesced = 0
        self.rejected = 0
        #: Measured Joules per accurate / approximate task (EWMA; None
        #: until the first observation — callers fall back to plan
        #: costs).
        self.e_acc_j: float | None = None
        self.e_apx_j: float | None = None
        # One governor per tenant: same control law as the single-run
        # energy controller, driven by the service between rounds.
        # Unmetered tenants run open-loop (ratio pinned to 1.0) — the
        # governor's budget-less mode would park them at the *floor*.
        self.governor: EnergyBudgetGovernor | None = (
            None
            if spec.budget_j is None
            else EnergyBudgetGovernor(
                budget_j=spec.budget_j,
                ratio_floor=spec.ratio_floor,
                ratio_ceiling=1.0,
                smoothing=spec.smoothing,
            )
        )
        #: Cluster mode: a :class:`~repro.cluster.ledger.LedgerLease`
        #: on the cluster-wide energy account.  ``None`` (the default,
        #: single-service mode) keeps the local lifetime-budget check.
        self.lease = None

    # -- admission predicates -------------------------------------------
    @property
    def ratio(self) -> float:
        """The accurate ratio this tenant is currently served at."""
        return 1.0 if self.governor is None else self.governor.ratio

    def served_ratio(self, requested: float) -> float:
        """The ratio a job requesting ``requested`` is served at: the
        governor's ratio caps it, the tier's floor bounds it below."""
        return max(min(requested, self.ratio), self.spec.ratio_floor)

    @property
    def over_budget(self) -> bool:
        if self.lease is not None:
            # Cluster mode: cut off only when the local lease is dry
            # AND the cluster account has nothing left to grant — a
            # read-only predicate; refills happen in replenish().
            return self.lease.exhausted
        budget = self.spec.budget_j
        return budget is not None and self.spent_j >= budget

    @property
    def saturated(self) -> bool:
        return self.pending >= self.spec.max_pending

    @property
    def budget_left_j(self) -> float | None:
        if self.spec.budget_j is None:
            return None
        return max(0.0, self.spec.budget_j - self.spent_j)

    # -- accounting ------------------------------------------------------
    def charge(self, energy_j: float) -> None:
        """Bill one executed job: local books, plus the cluster lease
        when one is attached (a lock-free local draw — see
        :mod:`repro.cluster.ledger`)."""
        self.spent_j += energy_j
        if self.lease is not None:
            self.lease.draw(energy_j)

    def attach_lease(self, lease) -> None:
        """Enter cluster mode: budget enforcement moves to ``lease``.

        The governor keeps steering *local* spend, now against the
        quota actually leased to this shard (retargeted each
        :meth:`replenish`) instead of the full cluster budget.
        """
        if self.lease is not None:
            raise ConfigError(
                f"tenant {self.spec.name!r} already holds a lease"
            )
        self.lease = lease

    def replenish(self) -> bool:
        """Pre-round lease top-up (cluster mode; no-op otherwise).

        Returns whether this tenant may keep executing on this shard.
        Retargets the governor to the lease's steering target (granted
        quota plus remaining cluster headroom — see
        :attr:`~repro.cluster.ledger.LedgerLease.steer_target_j`) so
        the deadbeat solve tracks what this shard can actually obtain.
        """
        if self.lease is None:
            return not self.over_budget
        ok = self.lease.ensure()
        if self.governor is not None:
            target = self.lease.steer_target_j
            if target > 0.0:
                self.governor.retarget(target)
        return ok

    def observe_energy(
        self, kind: str, busy_s: float, tasks: int, watts: float
    ) -> None:
        """Fold one round's per-kind busy time into the energy model."""
        if tasks <= 0:
            return
        observed = busy_s / tasks * watts
        attr = "e_acc_j" if kind == "acc" else "e_apx_j"
        prior = getattr(self, attr)
        setattr(
            self,
            attr,
            observed
            if prior is None
            else prior + _ENERGY_ALPHA * (observed - prior),
        )

    def steer(self, now: float, remaining_tasks: int) -> float:
        """One governor step against this tenant's remaining queue."""
        if self.governor is None:
            return 1.0
        e_acc = self.e_acc_j if self.e_acc_j is not None else 0.0
        e_apx = self.e_apx_j if self.e_apx_j is not None else 0.0
        return self.governor.control_step(
            now,
            spent_j=self.spent_j,
            remaining_tasks=remaining_tasks,
            e_acc_j=e_acc,
            e_apx_j=e_apx,
        )

    def summary(self) -> dict:
        """Flat per-tenant digest for stats endpoints and figures."""
        return {
            "tenant": self.spec.name,
            "tier": self.spec.tier,
            "budget_j": self.spec.budget_j,
            "spent_j": self.spent_j,
            "over_budget": self.over_budget,
            "ratio": self.ratio,
            "pending": self.pending,
            "executed": self.executed,
            "cached": self.cached,
            "cached_degraded": self.cached_degraded,
            "coalesced": self.coalesced,
            "rejected": self.rejected,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        budget = (
            "unmetered"
            if self.spec.budget_j is None
            else f"{self.spent_j:.3g}/{self.spec.budget_j:.3g}J"
        )
        return f"<TenantState {self.spec.name} {budget}>"
