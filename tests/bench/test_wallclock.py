"""Wall-clock lockdown for the fast path (slow; deselect with -m 'not slow').

Pins the headline property the fast-path PR claims: on a fixed
crypto-dominated workload, the fast profile is at least ``FLOOR``×
faster than the reference profile *while producing byte-identical
results*. The workload is deliberately small and deterministic so the
ratio — not the absolute time — is what matters; ratios are robust to
machine speed, which absolute budgets are not.

Also asserts the wall-clock hygiene lint stays clean: the simulation
tree itself still never reads wall time (these tests may — they live
outside ``src/``, which is all the lint scans).
"""

import time
from pathlib import Path

import pytest

from repro import fastpath
from repro.crypto import SecureSession, SessionHandshake
from repro.crypto.backend import available_backends
from repro.observatory import ALLOWED_WALL_CLOCK_FILES, wall_clock_call_sites

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: Minimum fast/reference speedup on the crypto workload. Hardware
#: AES-GCM (the only accelerated backend) clears it by orders of
#: magnitude.
FLOOR = 5.0

_ACCELERATED = [b for b in available_backends() if b != "reference"]


def crypto_workload():
    """Fixed bring-up + bulk-traffic workload; returns a transcript.

    Fresh seeds and keys every call so neither the DH memo nor the
    GCM-instance cache can satisfy a later profile's run from an
    earlier profile's work (cache keys include the exponent mode and
    backend, but the point of the measurement is the uncached path).
    """
    transcript = []
    profile = fastpath.config().name.encode()
    for i in range(6):
        tag = profile + b":%d" % i
        driver = SessionHandshake("driver", seed=b"wall-" + tag)
        gpu = SessionHandshake("gpu", seed=b"wall-" + tag)
        session = driver.complete(gpu.message())
        assert gpu.complete(driver.message()).key == session.key
        cpu, dev = session.endpoints()
        for j in range(40):
            payload = bytes([(i * 40 + j) % 256]) * 1600
            message = cpu.encrypt_next(payload, nbytes_logical=1 << 20)
            transcript.append((message.ciphertext, message.tag))
            assert dev.decrypt_next(message) == payload
    return transcript


def timed(profile):
    with fastpath.use_profile(profile):
        start = time.perf_counter()
        transcript = crypto_workload()
        return time.perf_counter() - start, transcript


@pytest.mark.slow
class TestSpeedupFloor:
    @pytest.mark.skipif(
        not _ACCELERATED,
        reason="no accelerated AES-GCM backend available; fast == reference",
    )
    def test_fast_profile_at_least_5x_on_crypto_workload(self):
        # Interleave and keep the best of three to shave scheduler noise.
        fast_times, ref_times = [], []
        for _ in range(3):
            ref_s, _ = timed("reference")
            fast_s, _ = timed("fast")
            ref_times.append(ref_s)
            fast_times.append(fast_s)
        speedup = min(ref_times) / min(fast_times)
        assert speedup >= FLOOR, (
            f"fast profile only {speedup:.1f}x faster than reference "
            f"(floor {FLOOR}x; backends: {available_backends()})"
        )

    def test_profiles_differ_only_in_speed_within_a_profile(self):
        # Same profile, same seeds ⇒ byte-identical transcripts; the
        # stopwatch is the only thing allowed to change run over run.
        _, first = timed("fast")
        _, second = timed("fast")
        assert first == second


@pytest.mark.slow
class TestWallClockHygiene:
    def test_simulation_tree_still_never_reads_wall_time(self):
        # The fast path added no wall-clock reads anywhere in src/.
        assert wall_clock_call_sites(SRC) == []

    def test_allowed_list_unchanged(self):
        assert set(ALLOWED_WALL_CLOCK_FILES) == {
            "cli.py", "observatory/dashboard.py"
        }
