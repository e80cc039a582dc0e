"""Migration fabric units: speculation, timing, round-trips, re-keying."""

import pytest

from repro.core import DisaggConfig
from repro.crypto import IvDesyncError, PayloadCorruptionError, SessionEndpoint
from repro.disagg import (
    MIGRATION_CHUNK_BYTES,
    DisaggCluster,
    DisaggRequest,
    MigrationSpeculator,
)
from repro.disagg.migration import chunk_payload


def make_cluster(system="pipellm", **kwargs):
    return DisaggCluster(DisaggConfig(system=system, **kwargs))


def migrate_once(cluster, rid=7, kv_bytes=3 * MIGRATION_CHUNK_BYTES,
                 src=None, dst=None):
    """Drive one migration through the fabric and return its record."""
    creq = DisaggRequest(
        rid=rid, tenant="tenant-0", request=None, submit_time=0.0,
        kv_bytes=kv_bytes,
    )
    src = src or cluster.prefill_pool[0]
    dst = dst or cluster.decode_pool[0]
    out = {}

    def driver():
        out["record"] = yield from cluster.fabric.migrate(creq, src, dst)

    cluster.sim.process(driver())
    cluster.sim.run()
    return out["record"]


class TestSpeculator:
    def test_learns_the_schedule_after_one_cold_miss(self):
        spec = MigrationSpeculator(clock=lambda: 0.0)
        outcomes = [
            spec.lookup("p0.e1", 2, MIGRATION_CHUNK_BYTES) for _ in range(20)
        ]
        assert not outcomes[0]  # nothing observed yet
        assert all(outcomes[2:])  # constant (dst, size) train: all hits
        assert spec.hit_rate > 0.85

    def test_destination_change_is_a_miss(self):
        spec = MigrationSpeculator(clock=lambda: 0.0)
        for _ in range(10):
            spec.lookup("p0.e1", 0, MIGRATION_CHUNK_BYTES)
        assert not spec.lookup("p0.e1", 1, MIGRATION_CHUNK_BYTES)

    def test_sources_learn_independently(self):
        spec = MigrationSpeculator(clock=lambda: 0.0)
        for _ in range(5):
            spec.lookup("p0.e1", 0, MIGRATION_CHUNK_BYTES)
        # A fresh source starts cold regardless of p0's training.
        assert not spec.lookup("p1.e1", 0, MIGRATION_CHUNK_BYTES)


class TestChunkPayload:
    def test_deterministic_and_distinct(self):
        assert chunk_payload(3, 0) == chunk_payload(3, 0)
        assert chunk_payload(3, 0) != chunk_payload(3, 1)
        assert chunk_payload(3, 0) != chunk_payload(4, 0)


class TestChunkTiming:
    def test_native_beats_staged_beats_serialized(self):
        native = make_cluster("native").fabric
        cc = make_cluster("cc").fabric
        pipellm = make_cluster("pipellm").fabric
        clear = native.chunk_seconds(staged=False)
        staged = pipellm.chunk_seconds(staged=True)
        serialized = cc.chunk_seconds(staged=False)
        assert clear < staged < serialized
        # A pipellm miss pays exactly the serialized cost.
        assert pipellm.chunk_seconds(staged=False) == serialized


class TestMigrate:
    def test_delivers_every_chunk_bit_exact_under_audit(self):
        cluster = make_cluster("pipellm")
        record = migrate_once(cluster, kv_bytes=5 * MIGRATION_CHUNK_BYTES)
        assert record.complete
        assert record.delivered == record.chunks == 5
        # Both endpoints feed the fleet audit: one IV per side per chunk.
        assert cluster.audit.observed == 2 * record.chunks

    def test_native_migrations_consume_no_ivs(self):
        cluster = make_cluster("native")
        record = migrate_once(cluster)
        assert record.complete
        assert cluster.audit.observed == 0

    def test_partial_chunk_rounds_up(self):
        cluster = make_cluster("cc")
        record = migrate_once(cluster, kv_bytes=MIGRATION_CHUNK_BYTES + 1)
        assert record.chunks == 2 and record.complete

    def test_destination_crash_aborts_with_status(self):
        cluster = make_cluster("cc")
        dst = cluster.decode_pool[0]

        def killer():
            yield cluster.sim.timeout(cluster.fabric.chunk_seconds(False) * 3)
            dst.crash()

        cluster.sim.process(killer())
        record = migrate_once(cluster, kv_bytes=64 * MIGRATION_CHUNK_BYTES,
                              dst=dst)
        assert record.status == "dst-crashed"
        assert not record.complete
        assert record.delivered < record.chunks

    def test_recovered_incarnation_gets_a_fresh_link(self):
        cluster = make_cluster("cc")
        src, dst = cluster.prefill_pool[0], cluster.decode_pool[0]
        first = cluster.fabric.link(src, dst)
        dst.crash()
        dst.recover()
        second = cluster.fabric.link(src, dst)
        assert first is not second
        assert first.label != second.label
        assert cluster.fabric.stats()["links"] == 2


class TestSafetyChecks:
    """The chunk-level invariants raise typed errors (they survive -O)."""

    def test_staged_commit_off_the_guess_raises_iv_desync(self, monkeypatch):
        cluster = make_cluster("pipellm")
        # The first staged chunk's commit reports a counter other than
        # the one its ciphertext was sealed under.
        monkeypatch.setattr(
            SessionEndpoint, "commit_tx_iv", lambda self: self.tx_iv.consume() + 1
        )
        with pytest.raises(IvDesyncError):
            migrate_once(cluster, kv_bytes=8 * MIGRATION_CHUNK_BYTES)

    def test_corrupted_round_trip_raises(self):
        cluster = make_cluster("pipellm")
        src, dst = cluster.prefill_pool[0], cluster.decode_pool[0]
        rx = cluster.fabric.link(src, dst).rx
        genuine = rx.decrypt_next
        rx.decrypt_next = lambda message: genuine(message)[::-1]
        with pytest.raises(PayloadCorruptionError):
            migrate_once(cluster, src=src, dst=dst)


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        dict(system="tdx"),
        dict(prefill_workers=-1),
        dict(decode_workers=0),
        dict(decode_policy="random"),
        dict(fail_kind="gateway"),
        dict(fail_at=1.0, fail_kind="decode", fail_index=3),
        dict(fail_at=1.0, fail_kind="prefill", fail_index=1),
        dict(recover_after=-0.5),
    ])
    def test_rejects_bad_configs(self, kwargs):
        with pytest.raises(ValueError):
            DisaggConfig(**kwargs)
