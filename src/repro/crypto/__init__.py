"""Cryptographic substrate: AES, AES-GCM, IV streams, secure sessions."""

from .aes import AES, BLOCK_SIZE
from .attestation import (
    AttestationError,
    AttestationReport,
    GOLDEN_MEASUREMENTS,
    GpuDevice,
    RootOfTrust,
)
from .handshake import (
    DhKeyPair,
    HandshakeMessage,
    SessionHandshake,
    derive_link_session,
    hkdf,
)
from .gcm import (
    AesGcm,
    AuthenticationError,
    IvDesyncError,
    PayloadCorruptionError,
    TAG_SIZE,
    iv_from_counter,
)
from .ivstream import IvExhaustedError, IvStream
from .session import EncryptedMessage, SecureSession, SessionEndpoint, tamper_tag

__all__ = [
    "AES",
    "AttestationError",
    "AttestationReport",
    "DhKeyPair",
    "GOLDEN_MEASUREMENTS",
    "GpuDevice",
    "HandshakeMessage",
    "RootOfTrust",
    "SessionHandshake",
    "derive_link_session",
    "hkdf",
    "AesGcm",
    "AuthenticationError",
    "BLOCK_SIZE",
    "EncryptedMessage",
    "IvDesyncError",
    "IvExhaustedError",
    "IvStream",
    "PayloadCorruptionError",
    "SecureSession",
    "SessionEndpoint",
    "tamper_tag",
    "TAG_SIZE",
    "iv_from_counter",
]
