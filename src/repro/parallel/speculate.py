"""Speculative pre-encryption for inter-GPU link traffic.

Collective schedules are the most predictable traffic in the system:
a ring all-reduce visits the same (src, dst, size) sequence every
layer, every step. :class:`LinkSpeculator` is the
:class:`~repro.core.stream.StreamSpeculator` keyed by source GPU: it
answers, per hop, whether the host's bounce-buffer crypto was
pre-arranged under the predicted (link, IV) — the staged fast path of
:class:`repro.hw.interconnect.Interconnect` — or must serialize. Link
storms force misses through the fault plane's ``link_mispredict``.
"""

from __future__ import annotations

from ..core.stream import StreamSpeculator

__all__ = ["LinkSpeculator"]


class LinkSpeculator(StreamSpeculator):
    """Per-source-GPU schedule prediction for link hops."""

    def lookup(self, src: int, dst: int, nbytes: int) -> bool:
        """One hop is about to cross the fabric: was it pre-arranged?"""
        faults = self.faults
        return self.speculate(
            src, dst, nbytes,
            faults.link_mispredict if faults is not None else None, f"{src}->{dst}",
        )
