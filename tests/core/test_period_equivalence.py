"""Differential harness: KMP period detector ≡ the reference scan.

:class:`repro.core.patterns.RepetitiveDetector` reads the smallest
period of its swap-in history off the KMP prefix function.
``ScanRepetitiveDetector`` below is the original detector, kept
verbatim: it tries every candidate period against the whole history
(O(n²) per lookup). Both are fed identical streams, periodic runs
broken by random keys over tiny alphabets and windows small enough
that eviction dominates, and after every swap-in must agree on the
period, on every prediction depth and on the rolling score.
"""

from collections import deque
from typing import Deque, List, Optional

from hypothesis import given, settings, strategies as st

from repro.core.patterns import ChunkKey, RepetitiveDetector, _ScoredDetector


class ScanRepetitiveDetector(_ScoredDetector):
    """The original quadratic-scan detector (differential reference)."""

    name = "repetitive"

    def __init__(self, max_history: int = 512, min_confirm: int = 1) -> None:
        super().__init__()
        self._history: Deque[ChunkKey] = deque(maxlen=max_history)
        self._min_confirm = min_confirm

    def observe_swap_out(self, key: ChunkKey) -> None:
        pass

    def observe_swap_in(self, key: ChunkKey) -> None:
        self._grade(self._next(), key)
        self._history.append(key)

    def _period(self) -> Optional[int]:
        history = list(self._history)
        n = len(history)
        for period in range(1, n - 1 + 1):
            confirmed = n - period
            if confirmed < self._min_confirm:
                continue
            if all(history[i] == history[i - period] for i in range(period, n)):
                return period
        return None

    def _next(self, ahead: int = 0) -> Optional[ChunkKey]:
        period = self._period()
        if period is None:
            return None
        history = list(self._history)
        return history[len(history) - period + (ahead % period)]

    def predict(self, count: int) -> List[ChunkKey]:
        period = self._period()
        if period is None:
            return []
        history = list(self._history)
        cycle = history[-period:]
        return [cycle[i % period] for i in range(count)]


def key(i):
    return (i * 4096, 1 << 20)


@st.composite
def streams(draw):
    """A swap-in stream: a short cycle with random keys spliced in."""
    alphabet = draw(st.integers(1, 5))
    cycle = draw(st.lists(st.integers(0, alphabet - 1), min_size=1, max_size=4))
    noise = draw(st.lists(st.booleans(), max_size=40))
    randoms = iter(draw(st.lists(st.integers(0, alphabet - 1),
                                 min_size=len(noise), max_size=len(noise))))
    return [key(next(randoms) if random else cycle[i % len(cycle)])
            for i, random in enumerate(noise)]


def assert_lockstep(max_history, min_confirm, stream):
    fast = RepetitiveDetector(max_history=max_history, min_confirm=min_confirm)
    scan = ScanRepetitiveDetector(max_history=max_history, min_confirm=min_confirm)
    for k in stream:
        fast.observe_swap_in(k)
        scan.observe_swap_in(k)
        assert fast._period == scan._period()
        for depth in range(0, 8):
            assert fast.predict(depth) == scan.predict(depth)
        assert fast.score == scan.score


class TestPeriodEquivalence:
    @given(
        max_history=st.integers(1, 12),
        min_confirm=st.integers(0, 5),
        stream=streams(),
    )
    @settings(max_examples=300, deadline=None)
    def test_small_windows_with_eviction(self, max_history, min_confirm, stream):
        assert_lockstep(max_history, min_confirm, stream)

    @given(min_confirm=st.integers(0, 5), stream=streams())
    @settings(max_examples=100, deadline=None)
    def test_default_window(self, min_confirm, stream):
        assert_lockstep(512, min_confirm, stream)

    def test_long_periodic_stream_through_full_window(self):
        # A cycle longer than half the window, then a phase change:
        # the period must be re-found from the evicted-and-rebuilt
        # prefix function exactly where the scan finds it.
        stream = [key(i % 7) for i in range(40)] + [key(i % 3) for i in range(40)]
        assert_lockstep(12, 1, stream)
