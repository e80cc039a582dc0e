"""Swap-pattern detectors (§5.1, Figure 5).

Today's LLM systems exhibit a small set of swap-in orderings that the
predictor can recognize from the low-level transfer trace alone:

* **Repetitive** — model offloading (FlexGen, DeepSpeed): the same
  layers stream in the same cyclic order every iteration.
* **FIFO** — layer-wise KV-cache swapping: blocks swapped out in layer
  order come back in the same order.
* **LIFO** — request-wise KV-cache swapping (vLLM): the lowest-priority
  request is evicted first and reloaded last.

Each detector scores its own hypothesis against the observed history;
the predictor picks the best-scoring one per traffic class. Detectors
are deliberately open-coded and independent so that a new pattern can
be added by implementing :class:`PatternDetector` (the paper's
"implement a new pattern" extension point).
"""

from __future__ import annotations

import abc
from collections import deque
from typing import Deque, List, Optional, Sequence

__all__ = [
    "FifoDetector",
    "LifoDetector",
    "PatternDetector",
    "RepetitiveDetector",
]

#: A chunk identity as seen at the driver level: (address, size).
ChunkKey = tuple


class PatternDetector(abc.ABC):
    """One hypothesis about the order of future swap-ins."""

    name = "abstract"

    @abc.abstractmethod
    def observe_swap_out(self, key: ChunkKey) -> None:
        """A chunk left the GPU (became predictable)."""

    @abc.abstractmethod
    def observe_swap_in(self, key: ChunkKey) -> None:
        """A chunk was requested back by the GPU."""

    @abc.abstractmethod
    def predict(self, count: int) -> List[ChunkKey]:
        """The next ``count`` swap-ins under this hypothesis."""

    @property
    @abc.abstractmethod
    def score(self) -> float:
        """Rolling prediction accuracy in [0, 1]."""


class _ScoredDetector(PatternDetector):
    """Shared hit/miss accounting with exponential forgetting."""

    _DECAY = 0.9

    def __init__(self) -> None:
        self._score = 0.0
        self._primed = False

    def _grade(self, predicted: Optional[ChunkKey], actual: ChunkKey) -> None:
        if predicted is None:
            return  # No hypothesis yet: neither credit nor blame.
        hit = 1.0 if predicted == actual else 0.0
        if self._primed:
            self._score = self._DECAY * self._score + (1 - self._DECAY) * hit
        else:
            self._score = hit
            self._primed = True

    @property
    def score(self) -> float:
        return self._score


class RepetitiveDetector(_ScoredDetector):
    """Cyclic layer-order detector for model offloading (Fig. 5a).

    Maintains the swap-in history and finds the smallest period ``p``
    such that the tail of the history is ``p``-periodic. The next
    swap-in is then the element one period back.

    The smallest period is ``n - border``, where ``border`` is the
    longest proper border of the history, read off the KMP prefix
    function kept next to it. A period needs ``n - p >= max(min_confirm,
    1)`` confirming entries, which holds for the smallest period iff it
    holds for any. The prefix function extends in amortised O(1) per
    swap-in until the window fills, then is rebuilt in one O(n) pass
    per eviction; the period is computed once per swap-in.
    """

    name = "repetitive"

    def __init__(self, max_history: int = 512, min_confirm: int = 1) -> None:
        super().__init__()
        self._history: Deque[ChunkKey] = deque(maxlen=max_history)
        self._min_confirm = max(min_confirm, 1)
        self._prefix: List[int] = []  # KMP prefix function of _history.
        self._period: Optional[int] = None  # Smallest confirmed period.

    def observe_swap_out(self, key: ChunkKey) -> None:
        # Offloaded weights never change residency mid-run; swap-outs
        # carry no ordering signal for this hypothesis.
        pass

    def observe_swap_in(self, key: ChunkKey) -> None:
        history, period = self._history, self._period
        self._grade(None if period is None else history[-period], key)
        if len(history) == history.maxlen:
            # Evicting the oldest key shifts every index: rebuild.
            history.append(key)
            self._prefix = []
            _extend_prefix(list(history), self._prefix)
        else:
            history.append(key)
            _extend_prefix(history, self._prefix)
        border = self._prefix[-1]
        self._period = len(history) - border if border >= self._min_confirm else None

    def predict(self, count: int) -> List[ChunkKey]:
        period = self._period
        if period is None:
            return []
        return [self._history[i % period - period] for i in range(count)]


def _extend_prefix(text: Sequence[ChunkKey], prefix: List[int]) -> None:
    """Extend a KMP prefix function of a prefix of ``text`` to all of it.

    ``prefix[i]`` is the length of the longest proper border of
    ``text[: i + 1]``; each appended entry costs amortised O(1).
    """
    border = prefix[-1] if prefix else 0
    for index in range(len(prefix), len(text)):
        key = text[index]
        while border and text[border] != key:
            border = prefix[border - 1]
        if index and text[border] == key:
            border += 1
        prefix.append(border)


class _PoolDetector(_ScoredDetector):
    """Base for FIFO/LIFO hypotheses over the swapped-out pool."""

    def __init__(self) -> None:
        super().__init__()
        self._pool: List[ChunkKey] = []  # In swap-out order.

    def observe_swap_out(self, key: ChunkKey) -> None:
        if key in self._pool:
            self._pool.remove(key)
        self._pool.append(key)

    def observe_swap_in(self, key: ChunkKey) -> None:
        predictions = self.predict(1)
        self._grade(predictions[0] if predictions else None, key)
        if key in self._pool:
            self._pool.remove(key)

    @property
    def pool(self) -> Sequence[ChunkKey]:
        return tuple(self._pool)


class FifoDetector(_PoolDetector):
    """First-swapped-out, first-swapped-in (layer-wise KV swapping)."""

    name = "fifo"

    def predict(self, count: int) -> List[ChunkKey]:
        return self._pool[:count]


class MarkovDetector(_ScoredDetector):
    """First-order transition model over swap-in successors.

    The paper's stated future work is to *learn* the predictor ``f``
    instead of hand-writing pattern heuristics (§5.1). This detector
    is the simplest useful learner: it counts, for every chunk, which
    chunk most often followed it in the swap-in stream, and predicts
    by walking that transition table. On strictly periodic traffic it
    converges to the repetitive detector; on noisy-but-biased traffic
    it can pick up structure the fixed hypotheses miss. It races in
    the same scoreboard as the hand-written detectors, so it only
    drives predictions when it is actually the most accurate.
    """

    name = "markov"

    def __init__(self, max_successors: int = 8) -> None:
        super().__init__()
        self._transitions: dict = {}
        self._last: Optional[ChunkKey] = None
        self._max_successors = max_successors

    def observe_swap_out(self, key: ChunkKey) -> None:
        pass  # Successor structure lives in the swap-in stream alone.

    def observe_swap_in(self, key: ChunkKey) -> None:
        self._grade(self._best_successor(self._last), key)
        if self._last is not None:
            counts = self._transitions.setdefault(self._last, {})
            counts[key] = counts.get(key, 0) + 1
            if len(counts) > self._max_successors:
                # Drop the weakest successor to bound state.
                weakest = min(counts, key=counts.get)
                del counts[weakest]
        self._last = key

    def _best_successor(self, key: Optional[ChunkKey]) -> Optional[ChunkKey]:
        if key is None:
            return None
        counts = self._transitions.get(key)
        if not counts:
            return None
        return max(counts, key=counts.get)

    def predict(self, count: int) -> List[ChunkKey]:
        out: List[ChunkKey] = []
        cursor = self._last
        seen = set()
        for _ in range(count):
            nxt = self._best_successor(cursor)
            if nxt is None or (nxt, cursor) in seen:
                break
            seen.add((nxt, cursor))
            out.append(nxt)
            cursor = nxt
        return out


class LifoDetector(_PoolDetector):
    """Last-swapped-out, first-swapped-in (request-wise KV swapping)."""

    name = "lifo"

    def predict(self, count: int) -> List[ChunkKey]:
        return list(reversed(self._pool[-count:])) if count else []
