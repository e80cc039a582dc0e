"""Fast-path configuration for the simulation kernel.

The functional layer of this repo — AES-GCM over every confidential
transfer, the discrete-event kernel, DH session bring-up — exists to
make the *semantics* of the paper observable (IV monotonicity, tag
authentication, speculation invalidation). None of it affects any
simulated quantity, so it may be swapped for faster machinery as long
as the observable behaviour is bit-identical. This module is the
single switch for that machinery:

* ``crypto_backend`` — which AES-GCM implementation
  :func:`repro.crypto.backend.make_gcm` hands out. ``"reference"`` is
  the pure-Python table-driven implementation pinned to the NIST CAVP
  vectors; ``"fast"`` auto-detects the quickest available backend
  (``cryptography`` hardware AES-GCM, then reference). The differential suite in
  ``tests/crypto/test_backend_equivalence.py`` proves every backend
  produces byte-identical ciphertext and tags.
* ``queue`` — the event-queue implementation in
  :class:`repro.sim.core.Simulator`. ``"heap"`` is the original
  binary-heap loop; ``"fast"`` adds a FIFO lane for events scheduled
  at the current timestamp (the dominant case: callback dispatch and
  zero-delay timeouts), preserving the exact ``(when, seq)`` total
  order — proven by ``tests/sim/test_queue_equivalence.py``.
* ``tier_threshold`` — payload-size tiering: functional plaintexts
  larger than this many bytes are replaced on the encryption path by
  a fixed-size authenticated digest while the original bytes ride
  alongside (see :mod:`repro.crypto.tiering`). ``0`` disables
  tiering. Timing, stage spans and per-chunk IV accounting are
  unaffected — only the number of bytes the functional cipher touches
  shrinks.
* ``short_dh_exponent`` — session bring-up uses 256-bit ephemeral DH
  exponents in the RFC 3526 2048-bit group (standard practice per
  RFC 7919 §5.2: the exponent only needs twice the security level)
  instead of full-width 2048-bit exponents, cutting each modexp ~8×.

The **reference profile** reproduces the pre-fast-path behaviour
exactly (full-width exponents, heap queue, no tiering, pure-Python
GCM); it is the conformance oracle the differential harness measures
the fast profile against.

The profile is process-wide mutable state, exactly like the default
seed in :mod:`repro.sim.rng`: the CLI sets it once from
``--crypto-backend`` (or the ``REPRO_FASTPATH`` environment variable)
before any simulation object is built. Tests use
:func:`use_profile` as a context manager.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, replace

__all__ = [
    "FastPathConfig",
    "FAST",
    "REFERENCE",
    "PROFILES",
    "config",
    "configure",
    "use_profile",
]

#: Default payload-tiering threshold (bytes). Chosen above every
#: functional payload the standing bench suite produces, so enabling
#: the fast profile leaves the suite's wire bytes bit-identical; only
#: genuinely bulk payloads (big collectives, Blackwell-scale
#: transfers) are tiered.
DEFAULT_TIER_THRESHOLD = 1024


@dataclass(frozen=True)
class FastPathConfig:
    """One resolved fast-path profile."""

    name: str
    crypto_backend: str      # "reference" | "fast" | "cryptography"
    queue: str               # "heap" | "fast"
    tier_threshold: int      # 0 disables payload tiering
    short_dh_exponent: bool


REFERENCE = FastPathConfig(
    name="reference",
    crypto_backend="reference",
    queue="heap",
    tier_threshold=0,
    short_dh_exponent=False,
)

FAST = FastPathConfig(
    name="fast",
    crypto_backend="fast",
    queue="fast",
    tier_threshold=DEFAULT_TIER_THRESHOLD,
    short_dh_exponent=True,
)

PROFILES = {"reference": REFERENCE, "fast": FAST}

_active: FastPathConfig = PROFILES.get(
    os.environ.get("REPRO_FASTPATH", "fast"), FAST
)


def config() -> FastPathConfig:
    """The active fast-path profile."""
    return _active


def configure(profile, **overrides) -> FastPathConfig:
    """Activate a profile (by name or instance), with field overrides.

    >>> configure("reference").queue
    'heap'
    >>> configure("fast", tier_threshold=64).tier_threshold
    64
    """
    global _active
    if isinstance(profile, str):
        try:
            profile = PROFILES[profile]
        except KeyError:
            raise ValueError(
                f"unknown fast-path profile {profile!r}; "
                f"choose from {sorted(PROFILES)}"
            ) from None
    if overrides:
        profile = replace(profile, **overrides)
    _active = profile
    return _active


@contextmanager
def use_profile(profile, **overrides):
    """Context manager scoping a profile change (tests, experiments)."""
    previous = _active
    try:
        yield configure(profile, **overrides)
    finally:
        configure(previous)
