"""Speculative pre-encryption for strictly ordered transfer streams.

Besides the host↔GPU copy, two streams carry traffic whose schedule is
deterministic: inter-GPU bounce hops (a ring all-reduce visits the
same (src, dst, size) sequence every layer, every step) and
disaggregated KV migration (same-sized chunk trains from a prefill
worker to one decode worker). :class:`StreamSpeculator` feeds each
source's outgoing sequence into its own :class:`~repro.core.predictor.
SwapPredictor` (the §5.1 hypothesis racer, reused unchanged — a
transfer to *d* of *n* bytes is "swap-in of chunk (d, n)") and
answers, per transfer, whether its crypto was pre-arranged under the
predicted (destination, IV) or must serialize.

A :class:`~repro.faults.policies.DegradationController` rides along:
under a storm (forced mispredictions from the fault plane) the
miss-rate EMA climbs, speculation parks, and every transfer takes the
serialized-but-safe path until the time-driven probe re-enables it.
Parked lookups never ship staged ciphertexts, so IV streams stay
monotone throughout.

Subclasses name the stream: each defines ``lookup(src, dst, nbytes)``
and passes its own fault-plane hook and label to :meth:`speculate`.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, Optional

from ..faults.policies import DegradationController, FaultPolicy
from .classify import SwapClass, TransferClassifier
from .predictor import SwapPredictor

__all__ = ["WARMUP", "StreamSpeculator"]

#: Per-source lookups whose outcome does not feed the degradation EMA:
#: a cold detector's first misses say nothing about the environment,
#: and letting them trip DEGRADED would park speculation for the whole
#: hold window at start-up.
WARMUP = 8


class StreamSpeculator:
    """Per-source schedule prediction with one shared degradation controller."""

    def __init__(self, clock: Callable[[], float], faults=None) -> None:
        #: Optional :class:`repro.faults.FaultInjector` forcing
        #: mispredictions (the storm campaigns).
        self.faults = faults
        self.controller = DegradationController(FaultPolicy(), clock)
        # One classifier + predictor per source: each source's outgoing
        # sequence is its own deterministic schedule; mixing sources
        # would make the learned pattern depend on how concurrent
        # streams interleave.
        self._classifiers: Dict[Hashable, TransferClassifier] = {}
        self._predictors: Dict[Hashable, SwapPredictor] = {}
        self._seen: Dict[Hashable, int] = {}
        self.lookups = 0
        self.hits = 0
        self.misses = 0
        self.parked = 0

    def _predictor(self, src: Hashable) -> SwapPredictor:
        if src not in self._predictors:
            # Every transfer is a "swap": threshold 1 keeps the weights
            # detectors (repetitive/Markov) fed for all of them.
            classifier = TransferClassifier(swap_threshold=1)
            self._classifiers[src] = classifier
            self._predictors[src] = SwapPredictor(classifier)
        return self._predictors[src]

    def speculate(self, src: Hashable, dst: int, nbytes: int,
                  mispredict: Optional[Callable[[str], bool]], label: str) -> bool:
        """One transfer is about to ship: was its crypto pre-arranged?

        Always feeds the observation (the predictor keeps learning the
        schedule even while parked); returns True only when the
        prediction matched, ``mispredict(label)`` did not force a miss,
        *and* the degradation controller currently allows speculation.
        The hook is only consulted on a predicted hit.
        """
        self.controller.poll()
        predictor = self._predictor(src)
        # Strictly ordered, repetitive traffic — the weights-class
        # hypotheses (repetitive/Markov) fit exactly.
        self._classifiers[src].register_weight_size(nbytes)
        predicted = predictor.predict(1, SwapClass.WEIGHTS)
        hit = bool(predicted) and predicted[0].key == (dst, nbytes)
        predictor.observe_swap_in(dst, nbytes)
        if hit and mispredict is not None and mispredict(label):
            hit = False
        self.lookups += 1
        self._seen[src] = self._seen.get(src, 0) + 1
        if not self.controller.speculation_enabled:
            # Parked: nothing was staged, the transfer serializes. The
            # EMA is not fed — recovery out of DEGRADED is time-driven.
            self.parked += 1
            self.misses += 1
            return False
        if self._seen[src] > WARMUP:
            self.controller.observe(hit)
        if hit:
            self.hits += 1
        else:
            self.misses += 1
        return hit

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0
