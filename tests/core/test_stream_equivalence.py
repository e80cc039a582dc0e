"""Differential harness: the shared StreamSpeculator ≡ the two old copies.

:class:`repro.core.stream.StreamSpeculator` holds the per-source
predictors, the degradation controller, the warmup gate and the
counters for both link hops and KV migration;
:class:`~repro.parallel.LinkSpeculator` and
:class:`~repro.disagg.MigrationSpeculator` only name their fault hook.
:class:`ReferenceLinkSpeculator` and
:class:`ReferenceMigrationSpeculator` keep the two standalone classes
they replaced, verbatim, as the reference. Over random chunk trains —
several sources, destination and size changes, an advancing clock and
a fault plane with live link and migration mispredict rates — both
must agree exactly on every lookup, the counters, the controller's
state and transitions, and every fault the injector fires.
"""

from typing import Callable, Dict, Optional

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.classify import SwapClass, TransferClassifier
from repro.core.predictor import SwapPredictor
from repro.disagg import MIGRATION_CHUNK_BYTES, MigrationSpeculator
from repro.faults import FaultInjector, FaultPlan
from repro.faults.policies import DegradationController, FaultPolicy
from repro.parallel import LinkSpeculator


class ReferenceLinkSpeculator:
    """The standalone link speculator, kept verbatim as the reference."""

    def __init__(
        self,
        clock: Callable[[], float],
        policy: Optional[FaultPolicy] = None,
        faults=None,
        sabotage: Optional[str] = None,
        warmup: int = 8,
    ) -> None:
        self.clock = clock
        self.warmup = warmup
        self.faults = faults
        self.sabotage = sabotage
        self.controller = DegradationController(policy or FaultPolicy(), clock)
        self._classifiers: Dict[int, TransferClassifier] = {}
        self._predictors: Dict[int, SwapPredictor] = {}
        self._seen: Dict[int, int] = {}
        self.lookups = 0
        self.hits = 0
        self.misses = 0
        self.parked = 0

    def _predictor(self, src: int) -> SwapPredictor:
        if src not in self._predictors:
            classifier = TransferClassifier(swap_threshold=1)
            self._classifiers[src] = classifier
            self._predictors[src] = SwapPredictor(classifier, sabotage=self.sabotage)
        return self._predictors[src]

    def lookup(self, src: int, dst: int, nbytes: int) -> bool:
        self.controller.poll()
        predictor = self._predictor(src)
        self._classifiers[src].register_weight_size(nbytes)
        predicted = predictor.predict(1, SwapClass.WEIGHTS)
        hit = bool(predicted) and predicted[0].key == (dst, nbytes)
        predictor.observe_swap_in(dst, nbytes)
        if hit and self.faults is not None and self.faults.link_mispredict(f"{src}->{dst}"):
            hit = False
        self.lookups += 1
        self._seen[src] = self._seen.get(src, 0) + 1
        if not self.controller.speculation_enabled:
            self.parked += 1
            self.misses += 1
            return False
        if self._seen[src] > self.warmup:
            self.controller.observe(hit)
        if hit:
            self.hits += 1
        else:
            self.misses += 1
        return hit

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


class ReferenceMigrationSpeculator:
    """The standalone migration speculator, kept verbatim as the reference."""

    def __init__(
        self,
        clock: Callable[[], float],
        policy: Optional[FaultPolicy] = None,
        faults=None,
        warmup: int = 8,
    ) -> None:
        self.clock = clock
        self.warmup = warmup
        self.faults = faults
        self.controller = DegradationController(policy or FaultPolicy(), clock)
        self._classifiers: Dict[str, TransferClassifier] = {}
        self._predictors: Dict[str, SwapPredictor] = {}
        self._seen: Dict[str, int] = {}
        self.lookups = 0
        self.hits = 0
        self.misses = 0
        self.parked = 0

    def _predictor(self, src: str) -> SwapPredictor:
        if src not in self._predictors:
            classifier = TransferClassifier(swap_threshold=1)
            self._classifiers[src] = classifier
            self._predictors[src] = SwapPredictor(classifier)
        return self._predictors[src]

    def lookup(self, src: str, dst: int, nbytes: int) -> bool:
        self.controller.poll()
        predictor = self._predictor(src)
        self._classifiers[src].register_weight_size(nbytes)
        predicted = predictor.predict(1, SwapClass.WEIGHTS)
        hit = bool(predicted) and predicted[0].key == (dst, nbytes)
        predictor.observe_swap_in(dst, nbytes)
        if hit and self.faults is not None and self.faults.migration_mispredict(
            f"{src}->d{dst}"
        ):
            hit = False
        self.lookups += 1
        self._seen[src] = self._seen.get(src, 0) + 1
        if not self.controller.speculation_enabled:
            self.parked += 1
            self.misses += 1
            return False
        if self._seen[src] > self.warmup:
            self.controller.observe(hit)
        if hit:
            self.hits += 1
        else:
            self.misses += 1
        return hit

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


class Clock:
    """The simulated time both the speculator and the injector read."""

    now = 0.0


class RecordingInjector(FaultInjector):
    """A fault injector that also keeps every fault it fires, in order."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.fired = []

    def _fire(self, domain: str, action: str, detail: str = "") -> None:
        self.fired.append((self._now, domain, action, detail))
        super()._fire(domain, action, detail)


#: (reference, merged, source naming) per stream.
STREAMS = {
    "link": (ReferenceLinkSpeculator, LinkSpeculator, lambda i: i),
    "migration": (ReferenceMigrationSpeculator, MigrationSpeculator, lambda i: f"p{i}.e1"),
}


def execute(cls, stream, rates, ops):
    """Run ``ops`` through one speculator; return all the observable state.

    Each op is a train ``(tick, src, dst, nbytes, repeat)``: ``repeat``
    lookups of the same hop, the clock advancing ``tick`` before each.
    """
    link_rate, migration_rate = rates
    clock = Clock()
    plan = FaultPlan(name="stream-storm", link_mispredict_rate=link_rate,
                     migration_mispredict_rate=migration_rate)
    injector = RecordingInjector(plan, seed=11).bind(clock)
    speculator = cls(lambda: clock.now, faults=injector)
    source = STREAMS[stream][2]
    results = []
    for tick, src, dst, nbytes, repeat in ops:
        for _ in range(repeat):
            clock.now += tick
            results.append(speculator.lookup(source(src), dst, nbytes))
    controller = speculator.controller
    return {
        "results": results,
        "lookups": speculator.lookups,
        "hits": speculator.hits,
        "misses": speculator.misses,
        "parked": speculator.parked,
        "hit_rate": speculator.hit_rate,
        "transitions": controller.transitions,
        "samples": controller.samples,
        "miss_ema": controller.miss_ema,
        "fired": injector.fired,
        "counts": injector.counts,
    }


#: Clock advance per lookup: none, sub-hold, and past the 50 ms hold
#: the degradation controller waits before probing.
ticks = st.sampled_from([0.0, 1e-5, 1e-3, 0.02, 0.06])
sizes = st.sampled_from([MIGRATION_CHUNK_BYTES, MIGRATION_CHUNK_BYTES, 4096, 1 << 16])
rates = st.tuples(st.sampled_from([0.0, 0.3, 0.9]), st.sampled_from([0.0, 0.3, 0.9]))


@st.composite
def trains(draw):
    sources = draw(st.integers(1, 3))
    train = st.tuples(ticks, st.integers(0, sources - 1), st.integers(0, 2), sizes,
                      st.integers(1, 16))
    return draw(st.lists(train, min_size=1, max_size=10))


#: A long single-source train (crosses the warmup gate), a destination
#: change, and a storm with both mispredict rates live.
LONG_TRAIN = [(1e-3, 0, 1, MIGRATION_CHUNK_BYTES, 16), (1e-3, 0, 2, MIGRATION_CHUNK_BYTES, 4),
              (0.02, 1, 0, 4096, 12)]


@pytest.mark.parametrize("stream", sorted(STREAMS))
class TestStreamEquivalence:
    @given(rates=rates, ops=trains())
    @settings(max_examples=200, deadline=None)
    @example(rates=(0.3, 0.9), ops=LONG_TRAIN)
    @example(rates=(0.9, 0.3), ops=LONG_TRAIN)
    @example(rates=(0.0, 0.0), ops=[(1e-3, 0, 1, MIGRATION_CHUNK_BYTES, 9)])
    def test_merged_matches_reference(self, stream, rates, ops):
        reference_cls, merged_cls, _ = STREAMS[stream]
        reference = execute(reference_cls, stream, rates, ops)
        merged = execute(merged_cls, stream, rates, ops)
        assert merged == reference

    def test_storm_degrades_both(self, stream):
        # A fault-heavy case the properties must cover: the controller
        # leaves SPECULATIVE and forced misses fire, identically.
        reference_cls, merged_cls, _ = STREAMS[stream]
        ops = [(1e-3, 0, 1, MIGRATION_CHUNK_BYTES, 16)] * 4
        reference = execute(reference_cls, stream, (0.9, 0.9), ops)
        merged = execute(merged_cls, stream, (0.9, 0.9), ops)
        assert reference["transitions"] and reference["fired"] and reference["parked"]
        assert merged == reference
