"""Unit tests for the inter-GPU fabric (hw.interconnect)."""

import pytest

from repro.cc import CcMode, build_machine
from repro.cluster import ClusterIvAudit, IvReuseError
from repro.crypto import IvDesyncError, SessionEndpoint, derive_link_session
from repro.parallel import LinkSpeculator


def run_transfer(machine, src, dst, payload, nbytes=0, tag=""):
    event = machine.interconnect.transfer(src, dst, payload, nbytes=nbytes, tag=tag)
    machine.run()
    return event.value


class TestP2P:
    def test_payload_delivered_verbatim(self):
        m = build_machine(CcMode.DISABLED, n_gpus=2)
        assert run_transfer(m, 0, 1, b"activations") == b"activations"
        assert m.interconnect.p2p_bytes == len(b"activations")
        assert m.interconnect.bounce_bytes == 0

    def test_logical_size_drives_timing_not_crypto(self):
        m = build_machine(CcMode.DISABLED, n_gpus=2)
        run_transfer(m, 0, 1, b"x", nbytes=64 * 1024 * 1024)
        assert m.sim.now >= 64 * 1024 * 1024 / m.params.p2p_bandwidth

    def test_faster_than_bounce(self):
        p2p = build_machine(CcMode.DISABLED, n_gpus=2)
        run_transfer(p2p, 0, 1, b"x", nbytes=8 * 1024 * 1024)
        cc = build_machine(CcMode.ENABLED, n_gpus=2)
        run_transfer(cc, 0, 1, b"x", nbytes=8 * 1024 * 1024)
        assert p2p.sim.now < cc.sim.now

    def test_tagged_payload_lands_in_device_memory(self):
        m = build_machine(CcMode.DISABLED, n_gpus=2)
        run_transfer(m, 0, 1, b"kv", tag="block7")
        assert m.gpus[1].read_plaintext("block7") == b"kv"


class TestBounceBridge:
    def test_roundtrip_bit_exact(self):
        m = build_machine(CcMode.ENABLED, n_gpus=2)
        payload = bytes(range(256))
        assert run_transfer(m, 0, 1, payload) == payload

    def test_serialized_strategy_recorded(self):
        m = build_machine(CcMode.ENABLED, n_gpus=2)
        run_transfer(m, 0, 1, b"a")
        (rec,) = m.interconnect.link_log
        assert (rec.mode, rec.strategy) == ("bounce", "serialized")

    def test_two_directions_are_distinct_links(self):
        m = build_machine(CcMode.ENABLED, n_gpus=2)
        run_transfer(m, 0, 1, b"fwd")
        run_transfer(m, 1, 0, b"bwd")
        labels = {link.label for link in m.interconnect.links()}
        assert labels == {"0->1", "1->0"}

    def test_link_keys_pairwise_distinct_and_off_session_key(self):
        m = build_machine(CcMode.ENABLED, n_gpus=4)
        for dst in (1, 2, 3):
            run_transfer(m, 0, dst, b"x")
        keys = set()
        for link in m.interconnect.links():
            up = derive_link_session(m.session.key, f"link:{link.label}:up")
            down = derive_link_session(m.session.key, f"link:{link.label}:down")
            keys.update({up.key, down.key})
        assert len(keys) == 6  # 3 links x 2 legs, no collisions
        assert m.session.key not in keys

    def test_same_gpu_transfer_rejected(self):
        m = build_machine(CcMode.ENABLED, n_gpus=2)
        with pytest.raises(ValueError):
            m.interconnect.transfer(0, 0, b"x")

    def test_out_of_range_gpu_rejected(self):
        m = build_machine(CcMode.ENABLED, n_gpus=2)
        with pytest.raises(ValueError):
            m.interconnect.transfer(0, 2, b"x")


class TestIvAudit:
    def test_every_hop_feeds_four_lanes(self):
        m = build_machine(CcMode.ENABLED, n_gpus=2)
        audit = ClusterIvAudit()
        m.interconnect.attach_audit(audit)
        run_transfer(m, 0, 1, b"a")
        # Up encrypt + up decrypt + down encrypt + down decrypt.
        assert audit.observed == 4
        assert audit.keys_seen() == 4

    def test_lanes_carry_link_labels(self):
        m = build_machine(CcMode.ENABLED, n_gpus=2)
        audit = ClusterIvAudit()
        m.interconnect.attach_audit(audit)
        run_transfer(m, 0, 1, b"a")
        streams = {stream for _, stream in audit.lanes()}
        assert any("link.0->1.up" in s for s in streams)
        assert any("link.0->1.down" in s for s in streams)

    def test_lanes_monotone_across_hops(self):
        m = build_machine(CcMode.ENABLED, n_gpus=2)
        audit = ClusterIvAudit()
        m.interconnect.attach_audit(audit)
        for i in range(5):
            run_transfer(m, 0, 1, bytes([i]))
        assert audit.observed == 20
        # Each lane's last IV advanced strictly (no lane stuck or reset).
        assert all(iv >= 5 for iv in audit.lanes().values())

    def test_audit_attached_before_first_link_still_covers_it(self):
        m = build_machine(CcMode.ENABLED, n_gpus=2)
        audit = ClusterIvAudit()
        m.interconnect.attach_audit(audit)  # no links derived yet
        run_transfer(m, 0, 1, b"late-link")
        assert audit.observed > 0

    def test_replayed_iv_trips_the_audit(self):
        # The failing case: feed the audit a lane, then replay an IV on
        # it, exactly what a desynchronized or rolled-back link would do.
        m = build_machine(CcMode.ENABLED, n_gpus=2)
        audit = ClusterIvAudit()
        m.interconnect.attach_audit(audit)
        run_transfer(m, 0, 1, b"a")
        link = m.interconnect.link(0, 1)
        key = link.gpu_up.key
        stream = link.gpu_up.tx_iv.name
        last = audit.lanes()[(ClusterIvAudit.fingerprint(key), stream)]
        with pytest.raises(IvReuseError):
            audit.observe(key, stream, last)


class TestSpeculation:
    def _speculated(self, n_hops, nbytes=1 << 20):
        m = build_machine(CcMode.ENABLED, n_gpus=2, enc_threads=8, dec_threads=8)
        spec = LinkSpeculator(lambda: m.sim.now)
        m.interconnect.attach_speculator(spec)
        for i in range(n_hops):
            run_transfer(m, 0, 1, bytes([i % 256]), nbytes=nbytes)
        return m, spec

    def test_repetitive_schedule_converges_to_hits(self):
        m, spec = self._speculated(12)
        strategies = [r.strategy for r in m.interconnect.link_log]
        assert strategies[-1] == "staged"
        assert m.interconnect.hit_rate() > 0.5

    def test_miss_then_hit_roundtrips_and_stays_monotone(self):
        m, spec = self._speculated(12)
        audit = ClusterIvAudit()
        m.interconnect.attach_audit(audit)
        payload = b"after-warmup"
        assert run_transfer(m, 0, 1, payload, nbytes=1 << 20) == payload
        assert audit.observed == 4

    def test_staged_hop_faster_than_serialized(self):
        serial = build_machine(CcMode.ENABLED, n_gpus=2, enc_threads=8, dec_threads=8)
        for i in range(12):
            run_transfer(serial, 0, 1, b"x", nbytes=1 << 20)
        t_serial = serial.sim.now

        staged, _ = self._speculated(12)
        assert staged.sim.now < t_serial

    def test_staged_commit_off_the_guess_raises_iv_desync(self, monkeypatch):
        m, _ = self._speculated(12)
        monkeypatch.setattr(
            SessionEndpoint, "commit_tx_iv", lambda self: self.tx_iv.consume() + 1
        )
        with pytest.raises(IvDesyncError):
            run_transfer(m, 0, 1, b"x", nbytes=1 << 20)

    def test_hit_rate_zero_without_speculator(self):
        m = build_machine(CcMode.ENABLED, n_gpus=2)
        run_transfer(m, 0, 1, b"x")
        assert m.interconnect.hit_rate() == 0.0


class TestPayloadTiering:
    """Bulk payloads over the fabric with payload tiering active."""

    PAYLOAD = bytes(range(256)) * 16  # 4 KiB, far above the threshold

    def tiered(self):
        from repro import fastpath

        return fastpath.use_profile("fast", tier_threshold=256)

    def test_bulk_roundtrip_bit_exact(self):
        with self.tiered():
            m = build_machine(CcMode.ENABLED, n_gpus=2)
            assert run_transfer(m, 0, 1, self.PAYLOAD) == self.PAYLOAD

    def test_stage_tiling_survives_tiering(self):
        # The sum(stages) == wire-latency invariant must hold when the
        # functional cipher only touched a 45-byte digest.
        with self.tiered():
            m = build_machine(CcMode.ENABLED, n_gpus=2)
            m.telemetry.enabled = True
            run_transfer(m, 0, 1, self.PAYLOAD, nbytes=1 << 20)
            (record,) = [r for r in m.telemetry.requests if r.direction == "link"]
            total = sum(end - start for _, start, end in record.stages)
            assert total == pytest.approx(record.complete_time - record.submit_time)

    def test_timing_is_driven_by_logical_size_not_payload(self):
        # Same logical transfer, tiny vs bulk functional payload:
        # simulated completion time must be bit-identical.
        with self.tiered():
            small = build_machine(CcMode.ENABLED, n_gpus=2)
            run_transfer(small, 0, 1, b"x", nbytes=1 << 20)
            big = build_machine(CcMode.ENABLED, n_gpus=2)
            run_transfer(big, 0, 1, self.PAYLOAD, nbytes=1 << 20)
            assert small.sim.now == big.sim.now

    def test_tiered_hop_still_feeds_four_audit_lanes(self):
        # One IV per leg per message, exactly as with bulk encryption.
        with self.tiered():
            m = build_machine(CcMode.ENABLED, n_gpus=2)
            audit = ClusterIvAudit()
            m.interconnect.attach_audit(audit)
            for i in range(3):
                run_transfer(m, 0, 1, self.PAYLOAD)
            assert audit.observed == 12
            assert all(iv >= 3 for iv in audit.lanes().values())


class TestTelemetry:
    def test_link_events_and_stage_tiling(self):
        m = build_machine(CcMode.ENABLED, n_gpus=2)
        m.telemetry.enabled = True
        run_transfer(m, 0, 1, b"x", nbytes=1 << 20)
        events = [e for e in m.telemetry.events if type(e).__name__ == "LinkEvent"]
        assert len(events) == 1
        assert events[0].mode == "bounce"
        (record,) = [r for r in m.telemetry.requests if r.direction == "link"]
        # Recorded stages tile the hop: their spans sum to its latency.
        total = sum(end - start for _, start, end in record.stages)
        assert total == pytest.approx(record.complete_time - record.submit_time)

    def test_counters_flow_without_recording(self):
        m = build_machine(CcMode.ENABLED, n_gpus=2)
        run_transfer(m, 0, 1, b"x")
        assert m.metrics.counters["interconnect.hops"].value == 1
