"""Pluggable AES-GCM backends behind one functional interface.

Every confidential byte in the simulation flows through
:class:`repro.crypto.session.SessionEndpoint`, which asks this module
for a GCM object via :func:`make_gcm`. Two interchangeable backends
implement the same ``encrypt / decrypt / try_decrypt`` surface:

``reference``
    The pure-Python table-driven :class:`repro.crypto.gcm.AesGcm`,
    pinned block-for-block to the NIST CAVP vectors. It is the
    conformance oracle: every other backend must be byte-identical to
    it (``tests/crypto/test_backend_equivalence.py``), and it is the
    baseline the wall-clock floor in ``tests/bench/test_wallclock.py``
    is measured against.

``cryptography``
    The ``cryptography`` package's AESGCM (hardware AES-NI /
    CLMUL via OpenSSL) — fastest by ~2 orders of magnitude.
    Dependency-gated; AES-GCM is fully deterministic so its output is
    byte-identical to the reference for every (key, nonce, aad,
    plaintext).

``fast`` resolves to the first available backend in the order
``cryptography → reference``.

GCM objects are stateless, so :func:`make_gcm` memoizes them per
(backend, key): the two endpoints of every :class:`SecureSession`
share one instance, and a re-handshaked session (same seed, e.g.
across bench campaigns) skips key-schedule and GHASH-table setup
entirely.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

from .. import fastpath
from .gcm import AesGcm, AuthenticationError

__all__ = [
    "CryptographyGcm",
    "available_backends",
    "backend_available",
    "make_gcm",
    "resolve_backend",
]

#: Auto-detect order for the ``fast`` alias.
FAST_ORDER = ("cryptography", "reference")


# -- cryptography backend ------------------------------------------------


class CryptographyGcm:
    """AES-GCM via the ``cryptography`` package (OpenSSL AES-NI)."""

    def __init__(self, key: bytes) -> None:
        from cryptography.hazmat.primitives.ciphers.aead import AESGCM

        if len(key) not in (16, 24, 32):
            raise ValueError(f"invalid AES key length: {len(key)}")
        self._aead = AESGCM(bytes(key))

    @staticmethod
    def _check_nonce(nonce: bytes) -> None:
        if len(nonce) != 12:
            raise ValueError("this implementation requires a 96-bit nonce")

    def encrypt(self, nonce: bytes, plaintext: bytes, aad: bytes = b"") -> Tuple[bytes, bytes]:
        self._check_nonce(nonce)
        blob = self._aead.encrypt(nonce, bytes(plaintext), bytes(aad))
        return blob[:-16], blob[-16:]

    def decrypt(self, nonce: bytes, ciphertext: bytes, tag: bytes, aad: bytes = b"") -> bytes:
        self._check_nonce(nonce)
        if len(tag) != 16:
            raise AuthenticationError("GCM tag mismatch")
        from cryptography.exceptions import InvalidTag

        try:
            return self._aead.decrypt(nonce, bytes(ciphertext) + bytes(tag), bytes(aad))
        except InvalidTag:
            raise AuthenticationError("GCM tag mismatch") from None

    def try_decrypt(self, nonce: bytes, ciphertext: bytes, tag: bytes, aad: bytes = b"") -> Optional[bytes]:
        try:
            return self.decrypt(nonce, ciphertext, tag, aad)
        except AuthenticationError:
            return None


# -- registry ------------------------------------------------------------

_FACTORIES = {
    "reference": AesGcm,
    "cryptography": CryptographyGcm,
}

_availability: Dict[str, bool] = {"reference": True}


def backend_available(name: str) -> bool:
    """True if ``name`` can be instantiated in this environment."""
    if name == "fast":
        return True
    if name not in _FACTORIES:
        return False
    cached = _availability.get(name)
    if cached is not None:
        return cached
    try:
        if name == "cryptography":
            from cryptography.hazmat.primitives.ciphers.aead import AESGCM  # noqa: F401
        ok = True
    except ImportError:
        ok = False
    _availability[name] = ok
    return ok


def available_backends() -> List[str]:
    """Concrete backends usable here, in fast-alias resolution order."""
    return [name for name in FAST_ORDER if backend_available(name)]


def resolve_backend(name: Optional[str] = None) -> str:
    """Resolve a backend name (or the active profile's) to a concrete one.

    ``"fast"`` picks the quickest available implementation; asking for
    a gated backend whose dependency is missing raises so the caller
    can fall back explicitly rather than silently changing speed class.
    """
    name = name or fastpath.config().crypto_backend
    if name == "fast":
        return available_backends()[0]
    if name not in _FACTORIES:
        raise ValueError(
            f"unknown crypto backend {name!r}; choose from "
            f"{sorted(_FACTORIES)} or 'fast'"
        )
    if not backend_available(name):
        raise RuntimeError(f"crypto backend {name!r} is not available here")
    return name


_CACHE_MAX = 1024
_gcm_cache: "OrderedDict[Tuple[str, bytes], object]" = OrderedDict()


def make_gcm(key: bytes, backend: Optional[str] = None):
    """A GCM object for ``key`` under the active (or given) backend.

    Instances are stateless and memoized per (backend, key); the cache
    is bounded FIFO so long-running multi-tenant scenarios cannot grow
    it without bound.
    """
    name = resolve_backend(backend)
    cache_key = (name, bytes(key))
    gcm = _gcm_cache.get(cache_key)
    if gcm is None:
        gcm = _FACTORIES[name](key)
        _gcm_cache[cache_key] = gcm
        if len(_gcm_cache) > _CACHE_MAX:
            _gcm_cache.popitem(last=False)
    return gcm
