"""PipeLLMRuntime behaviour tests.

Every test's background invariant: the GPU copy-engine model performs
real AES-GCM authentication, so ``machine.gpu.auth_failures == 0`` at
the end of a test proves the runtime's IV bookkeeping was sound for
that scenario — not merely that counters look right.
"""

import pytest

from repro.cc import CcMode, build_machine
from repro.core import PipeLLMConfig, PipeLLMRuntime
from repro.core.validator import ValidationOutcome
from repro.crypto import IvDesyncError
from repro.hw import MB, MemoryChunk

LAYER = 8 * MB
KV = 4 * MB


def make(enc=4, dec=2, **cfg):
    machine = build_machine(CcMode.ENABLED, enc_threads=enc, dec_threads=dec)
    runtime = PipeLLMRuntime(machine, PipeLLMConfig(**cfg) if cfg else None)
    return machine, runtime


def drive(machine, generator):
    machine.sim.process(generator)
    machine.run()
    assert machine.gpu.auth_failures == 0, "IV bookkeeping broke GCM auth"


class TestConstruction:
    def test_requires_cc(self):
        with pytest.raises(ValueError):
            PipeLLMRuntime(build_machine(CcMode.DISABLED))

    def test_hints_register(self):
        _, runtime = make()
        runtime.hint_weight_chunk_size(LAYER)
        runtime.hint_kv_block_size(KV)
        assert LAYER in runtime.classifier.weight_sizes
        assert KV in runtime.classifier.kv_block_sizes


class TestSmallTransfers:
    def test_small_h2d_not_pipelined(self):
        machine, runtime = make()
        region = machine.host_memory.allocate(1024, "tok", b"ids")

        def app():
            yield runtime.memcpy_h2d(region.chunk()).complete

        drive(machine, app())
        assert runtime.small_transfers == 1
        assert runtime.validator.requests == 0
        assert machine.gpu.read_plaintext("tok") == b"ids"

    def test_small_consumes_iv(self):
        machine, runtime = make()
        region = machine.host_memory.allocate(1024, "tok", b"x")

        def app():
            yield runtime.memcpy_h2d(region.chunk()).complete

        drive(machine, app())
        assert machine.cpu_endpoint.tx_iv.consumed == 1


class TestRepetitiveFlow:
    def test_steady_state_hits(self):
        machine, runtime = make()
        regions = [
            machine.host_memory.allocate(LAYER, f"layer.{i}", f"L{i}".encode())
            for i in range(3)
        ]
        runtime.hint_weight_chunk_size(LAYER)

        def app():
            for _ in range(6):
                for region in regions:
                    handle = runtime.memcpy_h2d(region.chunk())
                    yield handle.api_done
                    yield handle.complete
                    yield machine.sim.timeout(1e-3)

        drive(machine, app())
        stats = runtime.stats()
        # Cold start misses, then pure hits.
        assert stats["misses"] <= 4
        assert stats["hits"] + stats["future_hits"] >= 14
        assert machine.gpu.read_plaintext("layer.2") == b"L2"

    def test_hit_api_returns_fast(self):
        machine, runtime = make()
        regions = [
            machine.host_memory.allocate(LAYER, f"layer.{i}", b"w") for i in range(2)
        ]
        api_times = []

        def app():
            for _ in range(4):
                for region in regions:
                    handle = runtime.memcpy_h2d(region.chunk())
                    t0 = machine.sim.now
                    yield handle.api_done
                    api_times.append(machine.sim.now - t0)
                    yield handle.complete

        drive(machine, app())
        # Once the pattern locks, the API call no longer blocks on AES.
        assert api_times[-1] < 10e-6
        assert api_times[0] > 100e-6  # Cold miss blocked on encryption.


class TestLifoFlow:
    def _swap_cycle(self, machine, runtime, count):
        """Swap out `count` KV chunks then swap them back LIFO."""
        regions = []
        for i in range(count):
            region = machine.host_memory.allocate(KV, f"kv.{i}")
            machine.gpu._contents[f"kv.{i}"] = f"kv-{i}".encode()
            regions.append(region)

        def app():
            for region in regions:
                handle = runtime.memcpy_d2h(
                    MemoryChunk(region.addr, KV, b"", region.tag)
                )
                yield handle.api_done
            yield runtime.synchronize()
            yield machine.sim.timeout(0.1)  # decryption + staging time
            for region in reversed(regions):
                yield runtime.cpu_access(region.addr)
                chunk = machine.host_memory.chunk_at(region.addr)
                handle = runtime.memcpy_h2d(chunk)
                yield handle.api_done
            yield runtime.synchronize()

        drive(machine, app())
        return regions

    def test_lifo_roundtrip_content(self):
        machine, runtime = make(kv_depth=4)
        self._swap_cycle(machine, runtime, 3)
        for i in range(3):
            assert machine.gpu.read_plaintext(f"kv.{i}") == f"kv-{i}".encode()

    def test_lifo_predictions_hit(self):
        machine, runtime = make(kv_depth=4)
        self._swap_cycle(machine, runtime, 3)
        stats = runtime.stats()
        assert stats["success_rate"] == 1.0
        assert stats["async_decrypts"] == 3


class TestAsyncDecryption:
    def test_d2h_returns_before_decryption(self):
        machine, runtime = make()
        region = machine.host_memory.allocate(64 * MB, "kv.big")
        machine.gpu._contents["kv.big"] = b"big-kv"
        times = {}

        def app():
            handle = runtime.memcpy_d2h(MemoryChunk(region.addr, 64 * MB, b"", "kv.big"))
            yield handle.complete
            times["complete"] = machine.sim.now
            yield runtime.cpu_access(region.addr)
            times["plaintext"] = machine.sim.now

        drive(machine, app())
        # The memcpy returned before decryption finished (§5.4).
        assert times["plaintext"] > times["complete"]
        assert machine.host_memory.read(region.addr) == b"big-kv"
        assert runtime.async_decrypts == 1

    def test_usage_before_decryption_faults_synchronously(self):
        machine, runtime = make()
        region = machine.host_memory.allocate(64 * MB, "kv.big")
        machine.gpu._contents["kv.big"] = b"big-kv"
        payloads = {}

        def app():
            handle = runtime.memcpy_d2h(MemoryChunk(region.addr, 64 * MB, b"", "kv.big"))
            yield handle.complete
            # Touch immediately — before the async decrypt lands.
            payloads["data"] = machine.host_memory.read(region.addr)

        drive(machine, app())
        assert payloads["data"] == b"big-kv"
        assert runtime.sync_decrypts == 1

    def test_sync_decrypt_when_disabled(self):
        machine, runtime = make(async_decrypt=False)
        region = machine.host_memory.allocate(64 * MB, "kv.big")
        machine.gpu._contents["kv.big"] = b"big-kv"
        times = {}

        def app():
            handle = runtime.memcpy_d2h(MemoryChunk(region.addr, 64 * MB, b"", "kv.big"))
            yield handle.complete
            times["complete"] = machine.sim.now
            # Data must already be readable without any wait.
            assert machine.host_memory.read(region.addr) == b"big-kv"

        drive(machine, app())
        assert runtime.async_decrypts == 0

    def test_small_d2h_is_synchronous(self):
        machine, runtime = make()
        region = machine.host_memory.allocate(1024, "tok.out")
        machine.gpu._contents["tok.out"] = b"token"

        def app():
            handle = runtime.memcpy_d2h(MemoryChunk(region.addr, 1024, b"", "tok.out"))
            yield handle.complete
            assert machine.host_memory.read(region.addr) == b"token"

        drive(machine, app())
        assert runtime.async_decrypts == 0


class TestWriteInvalidation:
    def test_stale_plaintext_never_shipped(self):
        machine, runtime = make()
        regions = [
            machine.host_memory.allocate(LAYER, f"layer.{i}", b"v0") for i in range(2)
        ]

        def app():
            # Lock the repetitive pattern.
            for _ in range(3):
                for region in regions:
                    handle = runtime.memcpy_h2d(machine.host_memory.chunk_at(region.addr))
                    yield handle.complete
            # Update layer 0 in place: the staged ciphertext for it is
            # now stale and must be invalidated via the page fault.
            machine.host_memory.write(regions[0].addr, b"v1")
            handle = runtime.memcpy_h2d(machine.host_memory.chunk_at(regions[0].addr))
            yield handle.complete

        drive(machine, app())
        assert machine.gpu.read_plaintext("layer.0") == b"v1"
        assert runtime.pipeline.invalidated_by_fault >= 1


class TestSafetyChecks:
    def test_staged_commit_off_the_channel_iv_raises_iv_desync(self, monkeypatch):
        # The channel's TX IV moves between validation and commit, so
        # the validated entry no longer sits at the IV the wire will
        # consume. The check must raise a typed error (it survives -O).
        machine, runtime = make()
        regions = [
            machine.host_memory.allocate(LAYER, f"layer.{i}", b"w") for i in range(3)
        ]
        validate = runtime.validator.validate

        def skewed(addr, size, current):
            validation = validate(addr, size, current)
            if validation.outcome is ValidationOutcome.HIT_NOW:
                machine.cpu_endpoint.tx_iv.consume()
            return validation

        monkeypatch.setattr(runtime.validator, "validate", skewed)

        def app():
            for _ in range(6):
                for region in regions:
                    yield runtime.memcpy_h2d(region.chunk()).complete

        machine.sim.process(app())
        with pytest.raises(IvDesyncError, match="staged commit out of order"):
            machine.run()

    def test_overlapping_request_never_overtakes_a_suspended_one(self):
        # Swap-in of slot 1 hits a future IV and is suspended; slot 1 is
        # then rewritten and swapped in again. The second copy must not
        # land before the first, or the GPU is left holding v0.
        machine, runtime = make(enc=2, dec=2, kv_depth=3)
        kv = 2 * MB
        regions = [machine.host_memory.allocate(kv, f"slot{i}", b"v0") for i in range(2)]
        landed = []
        receive = machine.gpu.receive_ciphertext

        def record(chunk, message):
            plaintext = receive(chunk, message)
            landed.append((chunk.tag, plaintext))
            return plaintext

        machine.gpu.receive_ciphertext = record

        def app():
            for region in regions:
                handle = runtime.memcpy_d2h(MemoryChunk(region.addr, kv, b"v0", region.tag))
                yield handle.api_done
            yield runtime.cpu_access(regions[1].addr)
            yield runtime.memcpy_h2d(machine.host_memory.chunk_at(regions[1].addr)).api_done
            assert runtime.deferred_total == 1
            machine.host_memory.write(regions[1].addr, b"v1")
            yield runtime.memcpy_h2d(machine.host_memory.chunk_at(regions[1].addr)).api_done
            yield runtime.synchronize()

        drive(machine, app())
        assert landed == [("slot1", b"v0"), ("slot1", b"v1")]
        assert machine.gpu.read_plaintext("slot1") == b"v1"


class TestStats:
    def test_stats_keys_complete(self):
        _, runtime = make()
        stats = runtime.stats()
        for key in (
            "swap_requests", "hits", "future_hits", "stale", "misses",
            "success_rate", "nops_sent", "ondemand_encryptions",
            "small_transfers", "deferred", "sync_decrypts",
            "async_decrypts", "staged_total", "invalidated_by_fault",
            "invalidated_by_iv_skip", "relinquishes", "evicted",
            "gpu_auth_failures",
        ):
            assert key in stats
