"""AES-GCM authenticated encryption (NIST SP 800-38D).

This is the cipher mode used by NVIDIA Confidential Computing for all
CPU↔GPU transfers. GCM is the crux of the paper's technical problem:
every encryption consumes a unique 96-bit IV, and on the H100 the IV
is an implicitly synchronized incrementing counter — so speculatively
encrypting the *wrong* data burns an IV and invalidates every
pre-encrypted ciphertext queued behind it (§4.1, §5.3).

The GHASH field multiply is implemented directly over GF(2^128);
correctness is pinned to the NIST test vectors in
``tests/crypto/test_gcm.py``.
"""

from __future__ import annotations

import struct
from typing import Optional, Tuple

from .aes import AES, BLOCK_SIZE

__all__ = [
    "AesGcm",
    "AuthenticationError",
    "IvDesyncError",
    "PayloadCorruptionError",
    "TAG_SIZE",
    "iv_from_counter",
]

TAG_SIZE = 16
_R = 0xE1000000000000000000000000000000  # GHASH reduction polynomial.


class AuthenticationError(Exception):
    """Raised when a GCM tag fails to verify.

    In the simulation this is what an IV desynchronization between the
    CVM and the GPU copy engine *looks like*: the receiver derives a
    different counter stream and the tag check fails.
    """


class IvDesyncError(Exception):
    """Raised when a staged ciphertext's IV is not the one committed.

    A staged (pre-encrypted) chunk is sealed under the IV the sender
    predicts it will consume; shipping it under any other counter
    would desynchronize the two ends of the stream.
    """


class PayloadCorruptionError(Exception):
    """Raised when an authenticated round trip returns different bytes."""


def iv_from_counter(counter: int) -> bytes:
    """Map the channel's integer IV counter to a 96-bit GCM nonce.

    The paper describes the H100 IV as "a unique integer ... increments
    by one with each encryption" (§4.1); we encode it big-endian into
    the 12-byte nonce.
    """
    if counter < 0 or counter >= 1 << 96:
        raise ValueError("IV counter out of range for a 96-bit nonce")
    return counter.to_bytes(12, "big")


def _int_from_block(block: bytes) -> int:
    return int.from_bytes(block, "big")


def _xor_bytes(data: bytes, keystream: bytes) -> bytes:
    """XOR ``data`` with ``keystream`` (same length) as one big integer.

    Equivalent to the per-byte loop but runs in C; the CTR layer XORs
    whole payloads, so this keeps even the reference backend usable on
    multi-kilobyte messages.
    """
    n = len(data)
    return (
        int.from_bytes(data, "big") ^ int.from_bytes(keystream, "big")
    ).to_bytes(n, "big")


def _block_from_int(value: int) -> bytes:
    return value.to_bytes(16, "big")


class AesGcm:
    """AES-GCM with 96-bit nonces and 128-bit tags.

    >>> gcm = AesGcm(bytes(16))
    >>> ct, tag = gcm.encrypt(iv_from_counter(1), b"secret", b"")
    >>> gcm.decrypt(iv_from_counter(1), ct, tag, b"")
    b'secret'
    """

    def __init__(self, key: bytes) -> None:
        self._aes = AES(key)
        self._h = _int_from_block(self._aes.encrypt_block(bytes(16)))
        self._tables = self._build_ghash_tables(self._h)

    # -- internals --------------------------------------------------------

    @staticmethod
    def _build_ghash_tables(h: int):
        """Per-key byte tables: ``tables[p][b] = (b << 8·(15-p)) · H``.

        Built from the 128 values ``H·x^i`` (each obtained by one
        shift/reduce step), so construction costs ~4k XORs and each
        GHASH block multiply collapses to 16 lookups.
        """
        hbits = [0] * 128
        v = h
        for i in range(128):
            hbits[i] = v
            if v & 1:
                v = (v >> 1) ^ _R
            else:
                v >>= 1
        tables = []
        for position in range(16):
            base = hbits[8 * position : 8 * position + 8]
            row = [0] * 256
            for b in range(256):
                acc = 0
                for j in range(8):
                    if b & (0x80 >> j):
                        acc ^= base[j]
                row[b] = acc
            tables.append(row)
        return tables

    def _mul_h(self, x: int) -> int:
        """Table-driven multiply of ``x`` by the hash key H."""
        tables = self._tables
        y = 0
        for position in range(16):
            y ^= tables[position][(x >> (8 * (15 - position))) & 0xFF]
        return y

    def _ghash(self, aad: bytes, ciphertext: bytes) -> int:
        y = 0
        for chunk in _padded_blocks(aad):
            y = self._mul_h(y ^ _int_from_block(chunk))
        for chunk in _padded_blocks(ciphertext):
            y = self._mul_h(y ^ _int_from_block(chunk))
        lengths = struct.pack(">QQ", len(aad) * 8, len(ciphertext) * 8)
        return self._mul_h(y ^ _int_from_block(lengths))

    def _ctr_stream(self, j0: int, nbytes: int) -> bytes:
        out = bytearray()
        counter = j0
        while len(out) < nbytes:
            counter = (counter & ~0xFFFFFFFF) | ((counter + 1) & 0xFFFFFFFF)
            out.extend(self._aes.encrypt_block(_block_from_int(counter)))
        return bytes(out[:nbytes])

    @staticmethod
    def _j0(nonce: bytes) -> int:
        if len(nonce) != 12:
            raise ValueError("this implementation requires a 96-bit nonce")
        return _int_from_block(nonce + b"\x00\x00\x00\x01")

    # -- public API --------------------------------------------------------

    def encrypt(self, nonce: bytes, plaintext: bytes, aad: bytes = b"") -> Tuple[bytes, bytes]:
        """Return ``(ciphertext, tag)`` for ``plaintext`` under ``nonce``."""
        j0 = self._j0(nonce)
        keystream = self._ctr_stream(j0, len(plaintext))
        ciphertext = _xor_bytes(plaintext, keystream)
        s = self._ghash(aad, ciphertext)
        tag = _block_from_int(s ^ _int_from_block(self._aes.encrypt_block(_block_from_int(j0))))
        return ciphertext, tag

    def decrypt(
        self,
        nonce: bytes,
        ciphertext: bytes,
        tag: bytes,
        aad: bytes = b"",
    ) -> bytes:
        """Verify ``tag`` and return the plaintext.

        Raises :class:`AuthenticationError` on any mismatch — wrong
        nonce (IV desync), tampered ciphertext, or wrong AAD.
        """
        j0 = self._j0(nonce)
        s = self._ghash(aad, ciphertext)
        expected = _block_from_int(
            s ^ _int_from_block(self._aes.encrypt_block(_block_from_int(j0)))
        )
        if not _constant_time_eq(expected, tag):
            raise AuthenticationError("GCM tag mismatch")
        keystream = self._ctr_stream(j0, len(ciphertext))
        return _xor_bytes(ciphertext, keystream)

    def try_decrypt(
        self,
        nonce: bytes,
        ciphertext: bytes,
        tag: bytes,
        aad: bytes = b"",
    ) -> Optional[bytes]:
        """Like :meth:`decrypt` but returns None instead of raising."""
        try:
            return self.decrypt(nonce, ciphertext, tag, aad)
        except AuthenticationError:
            return None


def _padded_blocks(data: bytes):
    """Yield 16-byte blocks of ``data``, zero-padding the final block."""
    for offset in range(0, len(data), BLOCK_SIZE):
        chunk = data[offset : offset + BLOCK_SIZE]
        if len(chunk) < BLOCK_SIZE:
            chunk = chunk + bytes(BLOCK_SIZE - len(chunk))
        yield chunk


def _constant_time_eq(a: bytes, b: bytes) -> bool:
    if len(a) != len(b):
        return False
    result = 0
    for x, y in zip(a, b):
        result |= x ^ y
    return result == 0
