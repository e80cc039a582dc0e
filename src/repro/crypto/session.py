"""Secure-session abstraction binding keys and per-direction IV streams.

A :class:`SecureSession` models the shared state negotiated between
the CVM and the GPU at boot: one AES-GCM key and two independent IV
counters, one per transfer direction (host→device and device→host).
The two endpoints (:class:`SessionEndpoint`) each hold their *own*
counters; the protocol only works while both sides' counters agree,
which is the invariant PipeLLM's NOP padding and pipeline
relinquishing exist to maintain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from .backend import make_gcm
from .gcm import AuthenticationError, IvDesyncError, iv_from_counter
from .ivstream import IvStream
from .tiering import expand, shrink

__all__ = ["SecureSession", "SessionEndpoint", "EncryptedMessage", "tamper_tag"]


@dataclass(frozen=True)
class EncryptedMessage:
    """A ciphertext as it crosses the (untrusted) shared memory.

    The IV is *not* carried on the wire — both endpoints derive it from
    their local counters, exactly as on the H100 (§2.2). We keep the
    counter value used by the sender purely for introspection in tests
    and traces; the receiver never reads it.

    ``carried`` is only set for payload-tiered messages (see
    :mod:`repro.crypto.tiering`): the bulk payload bytes riding
    outside the cipher, bound to it by the authenticated digest the
    ciphertext actually encrypts.
    """

    ciphertext: bytes
    tag: bytes
    sender_iv: int
    nbytes_logical: int
    carried: Optional[bytes] = None


def tamper_tag(message: EncryptedMessage) -> EncryptedMessage:
    """Flip one tag bit: the in-transit corruption the fault plane injects.

    Shared memory is outside the TCB, so an attacker (or a bit flip)
    can mutate the ciphertext or tag at will; GCM guarantees the
    receiver notices. The flipped copy is what goes on the wire — the
    sender's original message object is untouched.
    """
    tag = bytes([message.tag[0] ^ 0x01]) + message.tag[1:]
    return EncryptedMessage(
        message.ciphertext, tag, message.sender_iv, message.nbytes_logical,
        message.carried,
    )


class SessionEndpoint:
    """One side of the channel (the CVM, or the GPU copy engine)."""

    def __init__(self, name: str, key: bytes, tx_start_iv: int, rx_start_iv: int) -> None:
        self.name = name
        self.key = bytes(key)
        self._gcm = make_gcm(self.key)
        self.tx_iv = IvStream(tx_start_iv, name=f"{name}.tx")
        self.rx_iv = IvStream(rx_start_iv, name=f"{name}.rx")

    def attach_audit(self, audit) -> None:
        """Report every consumed (key, stream, IV) to an IV audit.

        ``audit`` needs an ``observe(key, stream, iv)`` method —
        :class:`repro.cluster.tenant.ClusterIvAudit` fits. Consumption
        is exactly one observation per wire message per direction, so
        the audit proves no (key, IV) pair ever reaches the channel
        twice.
        """
        self.tx_iv.on_consume(lambda iv: audit.observe(self.key, self.tx_iv.name, iv))
        self.rx_iv.on_consume(lambda iv: audit.observe(self.key, self.rx_iv.name, iv))

    # -- sending -----------------------------------------------------------

    def encrypt_next(self, plaintext: bytes, nbytes_logical: int = 0) -> EncryptedMessage:
        """Encrypt with this endpoint's next TX IV (consuming it)."""
        counter = self.tx_iv.consume()
        functional, carried = shrink(plaintext)
        ciphertext, tag = self._gcm.encrypt(iv_from_counter(counter), functional)
        return EncryptedMessage(
            ciphertext, tag, counter, nbytes_logical or len(plaintext), carried
        )

    def encrypt_with_iv(self, plaintext: bytes, counter: int, nbytes_logical: int = 0) -> EncryptedMessage:
        """Encrypt with an explicit (speculative) IV, *not* consuming the stream.

        This is what PipeLLM's pipeline does: it guesses the counter a
        future transfer will use. Whether the guess was right is only
        learned when the ciphertext is committed to the channel.
        """
        functional, carried = shrink(plaintext)
        ciphertext, tag = self._gcm.encrypt(iv_from_counter(counter), functional)
        return EncryptedMessage(
            ciphertext, tag, counter, nbytes_logical or len(plaintext), carried
        )

    def commit_tx_iv(self) -> int:
        """Advance the TX counter because a ciphertext was put on the wire."""
        return self.tx_iv.consume()

    def send_staged(self, plaintext: bytes, nbytes_logical: int = 0) -> EncryptedMessage:
        """Ship a ciphertext staged under the guessed next TX IV (§5.1 hit).

        Encrypts under the counter the stream will consume next, then
        commits it as the ciphertext goes on the wire. The committed
        counter must equal the guess; a mismatch would silently
        desynchronize the streams, so it raises :class:`IvDesyncError`.
        """
        predicted = self.tx_iv.current
        message = self.encrypt_with_iv(plaintext, predicted, nbytes_logical)
        committed = self.commit_tx_iv()
        if committed != predicted:
            raise IvDesyncError(f"{self.name}: staged IV {predicted}, committed {committed}")
        return message

    # -- receiving ----------------------------------------------------------

    def decrypt_next(self, message: EncryptedMessage) -> bytes:
        """Decrypt with this endpoint's next RX IV (consuming it).

        Raises :class:`AuthenticationError` if the sender used a
        different counter — i.e. the streams desynchronized — or, for
        a tiered message, if the carried bytes fail their
        authenticated digest.
        """
        counter = self.rx_iv.consume()
        plaintext = self._gcm.decrypt(
            iv_from_counter(counter), message.ciphertext, message.tag
        )
        return expand(plaintext, message.carried)


class SecureSession:
    """Factory producing a matched pair of endpoints.

    >>> session = SecureSession(key=bytes(16))
    >>> cpu, gpu = session.endpoints()
    >>> msg = cpu.encrypt_next(b"weights")
    >>> gpu.decrypt_next(msg)
    b'weights'
    """

    def __init__(self, key: bytes, h2d_start_iv: int = 1, d2h_start_iv: int = 1) -> None:
        if len(key) not in (16, 24, 32):
            raise ValueError("key must be 16, 24 or 32 bytes")
        self.key = bytes(key)
        self.h2d_start_iv = h2d_start_iv
        self.d2h_start_iv = d2h_start_iv

    def endpoints(
        self, cpu_name: str = "cpu", gpu_name: str = "gpu"
    ) -> Tuple[SessionEndpoint, SessionEndpoint]:
        """Return the (cpu, gpu) endpoint pair with synchronized IVs.

        Names feed the endpoints' IV-stream labels; multi-GPU machines
        pass per-link names so audit lanes stay distinguishable.
        """
        cpu = SessionEndpoint(
            cpu_name, self.key, tx_start_iv=self.h2d_start_iv, rx_start_iv=self.d2h_start_iv
        )
        gpu = SessionEndpoint(
            gpu_name, self.key, tx_start_iv=self.d2h_start_iv, rx_start_iv=self.h2d_start_iv
        )
        return cpu, gpu


# Re-exported for convenience of callers catching channel auth failures.
AuthenticationError = AuthenticationError
