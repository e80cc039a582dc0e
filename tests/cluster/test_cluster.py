"""End-to-end cluster runs: completion, shedding, policies, metrics."""

from unittest import mock

import pytest

from repro.cluster import CLUSTER_TRACE, Cluster, ClusterRequest, Gateway, run_cluster
from repro.core import ClusterConfig
from repro.hw import default_params
from repro.models import OPT_13B, KvGeometry
from repro.serving.vllm import BlockManager
from repro.workloads import Request


def small_run(config, rate=3.0, duration=6.0, tenants=3):
    cluster = Cluster(config)
    result = cluster.run(cluster.workload(rate=rate, duration=duration,
                                          tenants=tenants))
    return cluster, result


class TestClusterRuns:
    def test_all_requests_resolve(self):
        _, result = small_run(ClusterConfig(replicas=2))
        assert result.offered > 0
        assert result.completed + result.shed == result.offered
        assert result.unfinished == 0
        assert result.auth_failures == 0

    def test_single_replica_fleet(self):
        _, result = small_run(ClusterConfig(replicas=1, policy="round-robin"))
        assert result.completed == result.offered
        assert result.utilization[0] > 0

    def test_latencies_and_throughput(self):
        _, result = small_run(ClusterConfig(replicas=2))
        assert len(result.latencies) == result.completed
        assert 0 < result.p50_latency <= result.p99_latency
        assert result.throughput > 0
        assert 0 < result.duration < 60

    def test_every_request_encrypted_roundtrip(self):
        # One request IV + one response IV per completion, more with
        # failover retries — never fewer.
        _, result = small_run(ClusterConfig(replicas=2))
        assert result.iv_observed >= 2 * result.completed
        assert result.iv_lanes >= 2  # at least one key, two directions

    def test_deterministic_given_seed(self):
        config = ClusterConfig(replicas=2, seed=11)
        _, first = small_run(config)
        _, second = small_run(ClusterConfig(replicas=2, seed=11))
        assert first.as_dict() == second.as_dict()

    def test_seed_changes_workload(self):
        _, first = small_run(ClusterConfig(replicas=2, seed=1))
        _, second = small_run(ClusterConfig(replicas=2, seed=2))
        assert first.as_dict() != second.as_dict()

    def test_native_fleet_runs_without_crypto(self):
        _, result = small_run(ClusterConfig(replicas=2, system="native"))
        assert result.completed == result.offered
        # Tenant-gateway sessions still run even when replicas skip CC.
        assert result.iv_observed >= 2 * result.completed


def budgeted(method, budget=50_000):
    """``method`` that raises once called more than ``budget`` times."""
    calls = [0]

    def wrapper(*args):
        calls[0] += 1
        if calls[0] > budget:
            raise RuntimeError(f"{method.__qualname__} called {budget}+ times: the run never settles")
        return method(*args)

    return wrapper


def tiny_replica_run(requests, blocks=200, replicas=1):
    """Native replicas whose KV pools hold exactly ``blocks`` blocks.

    The run is guarded: a scheduler that loops without ever yielding
    to the simulator, or a rejection bounced between replicas forever,
    trips a call budget instead of hanging.
    """
    geometry = KvGeometry(OPT_13B, block_size=16)
    reserve = (default_params().gpu_memory_bytes - OPT_13B.total_bytes
               - blocks * geometry.block_bytes)
    cluster = Cluster(ClusterConfig(replicas=replicas, system="native", reserve_bytes=reserve))
    creqs = [ClusterRequest(r.request_id, "tenant-0", r, r.arrival_time) for r in requests]
    with mock.patch.object(BlockManager, "can_allocate", budgeted(BlockManager.can_allocate)), \
            mock.patch.object(Gateway, "on_reject", budgeted(Gateway.on_reject, 100)):
        return cluster, cluster.run(creqs)


class TestKvBudgetEdges:
    def test_lone_swapped_group_inside_the_watermark_resumes(self):
        # Request 1 peaks at 199 of 200 blocks: inside the resume
        # watermark (4 blocks) but within the budget. Once request 0
        # finishes it is alone, so it must resume despite the watermark.
        _, result = tiny_replica_run([
            Request(0, 0.0, 16, 200),
            Request(1, 1e-4, 3120, 17, parallel_n=2),
        ])
        assert result.swap_outs > 0
        assert result.completed == 2
        assert result.unfinished == 0

    @pytest.mark.parametrize("replicas, arrival", [(1, 1e-4), (2, 1e-4), (2, 0.01)])
    def test_request_beyond_the_whole_budget_is_shed(self, replicas, arrival):
        # Request 1's prompt fits (194 blocks) but prompt + output
        # (201 blocks) never can: the replica it lands on rejects it at
        # admission and the gateway sheds it as kv-budget. Arriving at
        # 0.01 s, after request 0's handshake, least-loaded routing
        # sends it to the idle replica, which must not bounce it back.
        cluster, result = tiny_replica_run([
            Request(0, 0.0, 16, 200),
            Request(1, arrival, 3104, 100),
        ], replicas=replicas)
        assert (result.completed, result.shed, result.unfinished) == (1, 1, 0)
        assert cluster.gateway.metrics.counter("cluster.gateway.shed.kv-budget").value == 1


class TestAdmissionControl:
    def test_capacity_shedding(self):
        config = ClusterConfig(
            replicas=1, queue_capacity=2, max_outstanding=1,
            admission_timeout=30.0,
        )
        cluster, result = small_run(config, rate=40.0, duration=1.0)
        assert result.shed > 0
        assert result.completed + result.shed == result.offered
        shed_capacity = cluster.gateway.metrics.counter(
            "cluster.gateway.shed.capacity"
        ).value
        assert shed_capacity > 0

    def test_timeout_shedding(self):
        config = ClusterConfig(
            replicas=1, queue_capacity=64, max_outstanding=1,
            admission_timeout=0.2,
        )
        cluster, result = small_run(config, rate=30.0, duration=1.0)
        shed_timeout = cluster.gateway.metrics.counter(
            "cluster.gateway.shed.timeout"
        ).value
        assert shed_timeout > 0
        assert result.completed + result.shed == result.offered

    def test_queue_depth_recorded(self):
        config = ClusterConfig(replicas=1, max_outstanding=1)
        cluster, result = small_run(config, rate=20.0, duration=1.0)
        series = cluster.gateway.metrics.timeseries("cluster.gateway.queue_depth")
        assert series.points
        assert max(v for _, v in series.points) > 0


class TestPolicies:
    def test_affinity_needs_fewer_handshakes(self):
        _, affinity = small_run(
            ClusterConfig(replicas=4, policy="affinity"), rate=4.0
        )
        _, spread = small_run(
            ClusterConfig(replicas=4, policy="round-robin"), rate=4.0
        )
        # Same workload either way; sticking tenants to replicas means
        # strictly fewer (tenant, replica) sessions.
        assert affinity.completed == spread.completed
        assert affinity.handshakes < spread.handshakes
        assert affinity.prefix_hits >= spread.prefix_hits

    def test_least_loaded_uses_whole_fleet(self):
        _, result = small_run(
            ClusterConfig(replicas=2, policy="least-loaded"), rate=6.0
        )
        assert all(frac > 0 for frac in result.utilization.values())


class TestTelemetry:
    def test_cluster_events_recorded(self):
        from repro.telemetry import ClusterEvent, recording

        with recording() as session:
            _, result = small_run(ClusterConfig(replicas=2))
        gateway_hubs = [h for h in session.hubs if h.label == "gateway"]
        assert len(gateway_hubs) == 1
        events = gateway_hubs[0].events_of(ClusterEvent)
        actions = {e.action for e in events}
        assert {"enqueue", "dispatch", "handshake", "complete"} <= actions
        completes = [e for e in events if e.action == "complete"]
        assert len(completes) == result.completed

    def test_chrome_trace_has_cluster_lane(self):
        from repro.telemetry import chrome_trace, recording

        with recording() as session:
            small_run(ClusterConfig(replicas=2))
        trace = chrome_trace(session.hubs)
        names = {e.get("name") for e in trace["traceEvents"]}
        assert any(n and n.startswith("cluster") or n == "step"
                   for n in names if n)


class TestWorkload:
    def test_tenant_assignment_within_bounds(self):
        cluster = Cluster(ClusterConfig(replicas=1, seed=3))
        creqs = cluster.workload(rate=10.0, duration=2.0, tenants=3)
        tenants = {c.tenant for c in creqs}
        assert tenants <= {f"tenant-{i}" for i in range(3)}
        assert all(len(c.payload) == 16 for c in creqs)

    def test_trace_spec_is_small(self):
        assert CLUSTER_TRACE.max_prompt <= 256
        assert CLUSTER_TRACE.max_output <= 64

    def test_run_cluster_convenience(self):
        result = run_cluster(
            ClusterConfig(replicas=1), rate=2.0, duration=2.0, tenants=2
        )
        assert result.completed + result.shed == result.offered
