"""Secure-session tests: the IV-synchronization contract of §2.2.

These tests pin the exact behaviour PipeLLM's design revolves around:
in-order delivery authenticates; any reordering, skip, or replay is a
GCM failure.
"""

import pytest

from repro.cluster.tenant import ClusterIvAudit
from repro.crypto import AuthenticationError, IvDesyncError, SecureSession, SessionEndpoint


@pytest.fixture
def endpoints():
    return SecureSession(key=bytes(range(16))).endpoints()


class TestHappyPath:
    def test_h2d_roundtrip(self, endpoints):
        cpu, gpu = endpoints
        message = cpu.encrypt_next(b"layer-weights")
        assert gpu.decrypt_next(message) == b"layer-weights"

    def test_d2h_roundtrip(self, endpoints):
        cpu, gpu = endpoints
        message = gpu.encrypt_next(b"kv-cache")
        assert cpu.decrypt_next(message) == b"kv-cache"

    def test_many_in_order(self, endpoints):
        cpu, gpu = endpoints
        for i in range(50):
            payload = f"chunk-{i}".encode()
            assert gpu.decrypt_next(cpu.encrypt_next(payload)) == payload

    def test_directions_independent(self, endpoints):
        cpu, gpu = endpoints
        up = cpu.encrypt_next(b"up")
        down = gpu.encrypt_next(b"down")
        # Interleaved directions use separate counters.
        assert cpu.decrypt_next(down) == b"down"
        assert gpu.decrypt_next(up) == b"up"

    def test_logical_size_is_carried(self, endpoints):
        cpu, _ = endpoints
        message = cpu.encrypt_next(b"tiny", nbytes_logical=1 << 30)
        assert message.nbytes_logical == 1 << 30


class TestDesynchronization:
    def test_out_of_order_delivery_fails(self, endpoints):
        cpu, gpu = endpoints
        first = cpu.encrypt_next(b"first")
        second = cpu.encrypt_next(b"second")
        with pytest.raises(AuthenticationError):
            gpu.decrypt_next(second)
        # The failed attempt consumed the receiver IV: even the right
        # message can no longer authenticate — the channel is wedged.
        with pytest.raises(AuthenticationError):
            gpu.decrypt_next(first)

    def test_replay_fails(self, endpoints):
        cpu, gpu = endpoints
        message = cpu.encrypt_next(b"secret")
        assert gpu.decrypt_next(message) == b"secret"
        with pytest.raises(AuthenticationError):
            gpu.decrypt_next(message)

    def test_cross_session_fails(self):
        cpu_a, _ = SecureSession(key=bytes(16)).endpoints()
        _, gpu_b = SecureSession(key=bytes(range(16))).endpoints()
        message = cpu_a.encrypt_next(b"x")
        with pytest.raises(AuthenticationError):
            gpu_b.decrypt_next(message)


class TestSpeculativeEncryption:
    def test_encrypt_with_iv_does_not_consume(self, endpoints):
        cpu, _ = endpoints
        before = cpu.tx_iv.current
        cpu.encrypt_with_iv(b"speculative", counter=before + 5)
        assert cpu.tx_iv.current == before

    def test_correctly_predicted_iv_authenticates(self, endpoints):
        cpu, gpu = endpoints
        predicted = cpu.tx_iv.peek()
        message = cpu.encrypt_with_iv(b"predicted", predicted)
        cpu.commit_tx_iv()
        assert gpu.decrypt_next(message) == b"predicted"

    def test_mispredicted_iv_fails(self, endpoints):
        cpu, gpu = endpoints
        message = cpu.encrypt_with_iv(b"too-early", cpu.tx_iv.peek(ahead=3))
        cpu.commit_tx_iv()
        with pytest.raises(AuthenticationError):
            gpu.decrypt_next(message)

    def test_nop_padding_heals_future_iv(self, endpoints):
        """The §5.3 mechanism end to end: pad NOPs until the staged
        ciphertext's predicted IV becomes current, then deliver it."""
        cpu, gpu = endpoints
        target_iv = cpu.tx_iv.peek(ahead=3)
        staged = cpu.encrypt_with_iv(b"staged", target_iv)
        while cpu.tx_iv.current < target_iv:
            nop = cpu.encrypt_next(b"\x00")
            gpu.decrypt_next(nop)
        cpu.commit_tx_iv()
        assert gpu.decrypt_next(staged) == b"staged"


class TestSendStaged:
    """The staged fast path: encrypt under the guess, commit, compare."""

    def test_peer_decrypts_the_staged_message(self, endpoints):
        cpu, gpu = endpoints
        message = cpu.send_staged(b"staged", nbytes_logical=1 << 20)
        assert message.nbytes_logical == 1 << 20
        assert gpu.decrypt_next(message) == b"staged"

    def test_consumes_exactly_one_tx_iv_with_one_audit_observation(self, endpoints):
        cpu, _ = endpoints
        audit = ClusterIvAudit()
        cpu.attach_audit(audit)
        before = cpu.tx_iv.current
        message = cpu.send_staged(b"staged")
        assert message.sender_iv == before
        assert cpu.tx_iv.current == before + 1
        assert audit.observed == 1

    def test_commit_off_the_guess_raises_iv_desync(self, endpoints, monkeypatch):
        cpu, _ = endpoints
        monkeypatch.setattr(
            SessionEndpoint, "commit_tx_iv", lambda self: self.tx_iv.consume() + 1
        )
        with pytest.raises(IvDesyncError, match=cpu.name):
            cpu.send_staged(b"staged")


class TestSessionFactory:
    def test_custom_start_ivs(self):
        session = SecureSession(key=bytes(16), h2d_start_iv=100, d2h_start_iv=200)
        cpu, gpu = session.endpoints()
        assert cpu.tx_iv.current == 100
        assert gpu.rx_iv.current == 100
        assert gpu.tx_iv.current == 200
        assert cpu.rx_iv.current == 200

    def test_bad_key_rejected(self):
        with pytest.raises(ValueError):
            SecureSession(key=b"short")
