"""ClusterService: routing, rounds, budgets, and the duck-typed door."""

import pytest

from repro.cluster import ClusterService, ClusterSpec
from repro.config import RuntimeConfig
from repro.runtime.errors import ConfigError, SchedulerError
from repro.serve import JobRequest, LocalGateway


def make_cluster(shards=4, tenants=("standard:name='t'",), **kw):
    return ClusterService(
        RuntimeConfig(policy="gtb-max", n_workers=4),
        tenants=tenants,
        cluster=ClusterSpec(shards=shards),
        **kw,
    )


def mc_job(tenant="t", seed=0, samples=300):
    return JobRequest(
        tenant=tenant,
        kernel="mc-pi",
        args={"blocks": 4, "samples": samples, "seed": seed},
    )


class TestSpec:
    def test_validation(self):
        with pytest.raises(ConfigError, match="shards"):
            ClusterSpec(shards=0)
        with pytest.raises(ConfigError, match="lease_frac"):
            ClusterSpec(lease_frac=0.0)

    def test_config_cluster_field_round_trips(self):
        cfg = RuntimeConfig(policy="gtb-max", cluster=4)
        assert cfg.cluster == "cluster:shards=4"
        assert RuntimeConfig.from_dict(cfg.to_dict()) == cfg
        assert cfg.build_cluster().shards == 4
        with pytest.raises(ConfigError, match="cluster"):
            RuntimeConfig(cluster=True)
        # Spec syntax is validated at construction; unknown options at
        # build time, when the cluster registry family is resolved.
        with pytest.raises(ConfigError, match="bogus"):
            RuntimeConfig(
                policy="gtb-max", cluster="cluster:bogus=1"
            ).build_cluster()

    def test_service_reads_config_cluster(self):
        service = ClusterService(
            RuntimeConfig(policy="gtb-max", n_workers=4, cluster=3),
            tenants=("standard:name='t'",),
        )
        with service:
            assert len(service.shards) == 3


class TestRouting:
    def test_same_request_same_shard(self):
        with make_cluster() as service:
            a = service.route(mc_job(seed=1))
            assert a == service.route(mc_job(seed=1))
            assert 0 <= a < 4

    def test_distinct_work_spreads(self):
        with make_cluster(shards=4) as service:
            shards = {
                service.route(mc_job(seed=s)) for s in range(60)
            }
            assert len(shards) == 4

    def test_unknown_kernel_still_routes_to_a_404(self):
        with make_cluster() as service:
            report = service.submit(
                JobRequest(tenant="t", kernel="nope", args={})
            )
            assert report.code == 404

    def test_bad_args_route_to_a_400(self):
        with make_cluster() as service:
            report = service.submit(
                JobRequest(
                    tenant="t", kernel="sobel", args={"size": -1}
                )
            )
            assert report.code == 400


class TestServing:
    def test_jobs_execute_across_shards(self):
        with make_cluster() as service:
            reports = [
                service.submit(mc_job(seed=s)) for s in range(24)
            ]
            while service.pending_jobs:
                service.flush()
            assert all(r.status == "executed" for r in reports)
            assert all(
                r.output == pytest.approx(3.14, abs=0.6)
                for r in reports
            )
            # The work actually landed on more than one scheduler.
            busy = [
                w.index
                for w in service.shards
                if w.service.tenants["t"].executed > 0
            ]
            assert len(busy) > 1

    def test_identical_jobs_cache_across_shards(self):
        # Two tenants, same kernel+args: different route keys, one
        # shared cache entry.
        tenants = ("standard:name='a'", "standard:name='b'")
        with make_cluster(tenants=tenants) as service:
            first = service.submit(mc_job(tenant="a", seed=7))
            while service.pending_jobs:
                service.flush()
            second = service.submit(mc_job(tenant="b", seed=7))
            while service.pending_jobs:
                service.flush()
            assert first.status == "executed"
            assert second.status == "cached"
            assert second.output == first.output

    def test_cluster_budget_enforced_across_shards(self):
        tenants = ("standard:name='t',budget_j=0.0005,max_pending=256",)
        with make_cluster(tenants=tenants) as service:
            # Interleave submits and rounds: shedding happens at
            # admission time, once executed rounds have booked spend.
            for s in range(60):
                service.submit(mc_job(seed=s, samples=400))
                service.flush()
            while service.pending_jobs:
                service.flush()
            summary = service.tenant_summary("t")
            # The ledger cut the tenant off cluster-wide: some jobs
            # were shed, and lifetime spend stayed near the budget
            # (within the in-flight slack of one round per shard).
            shed = (
                summary["rejected"]
                + summary["cached"]
                + summary["cached_degraded"]
            )
            assert shed > 0
            assert summary["over_budget"]
        assert service.ledger.spent_j("t") == pytest.approx(
            summary["spent_j"]
        )

    def test_overspend_reports_over_budget(self):
        # The whole queue runs in about one round across the shards,
        # before any governor acts: cluster-wide spend overshoots the
        # budget while some shard's lease still reads not-dry.  The
        # summary must still say OVER.
        tenants = ("standard:name='t',budget_j=0.0005,max_pending=256",)
        with make_cluster(tenants=tenants) as service:
            for s in range(16):
                service.submit(mc_job(seed=s, samples=400))
            while service.pending_jobs:
                service.flush()
            summary = service.tenant_summary("t")
        assert summary["spent_j"] >= summary["budget_j"]
        assert summary["over_budget"]

    def test_stats_shape(self):
        with make_cluster(shards=2) as service:
            service.submit(mc_job())
            service.flush()
            stats = service.stats()
            assert stats["cluster"]["shards"] == 2
            assert stats["rounds"] >= 1
            assert len(stats["per_shard"]) == 2
            assert "t" in stats["tenants"]
            assert "cache" in stats and "ledger" in stats

    def test_close_is_idempotent_and_final(self):
        service = make_cluster(shards=2)
        service.submit(mc_job())
        reports = service.close()
        assert len(reports) == 2
        assert service.close() is reports
        with pytest.raises(SchedulerError, match="closed"):
            service.submit(mc_job())
        with pytest.raises(SchedulerError, match="closed"):
            service.flush()

    def test_duplicate_tenants_raise(self):
        with pytest.raises(ConfigError, match="duplicate"):
            make_cluster(
                tenants=("standard:name='x'", "premium:name='x'")
            )


class TestGatewayFronting:
    def test_local_gateway_fronts_a_cluster(self):
        service = make_cluster(shards=3)
        gateway = LocalGateway(service=service)
        try:
            reports = gateway.submit_many(
                [mc_job(seed=s) for s in range(9)]
            )
            assert all(r.ok for r in reports)
        finally:
            gateway.close()
