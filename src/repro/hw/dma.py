"""CVM shared-memory DMA staging buffers.

§6 of the paper: CUDA normally zero-copies ciphertext straight into
CVM *shared* memory, but PipeLLM must not expose unvalidated
speculative ciphertext there. It therefore stages predictions in
*private* memory and copies them into a small ring of fixed-size
shared DMA buffers only after validation; since memcpy is faster than
PCIe, a handful of buffers suffices.

:class:`DmaStaging` models that ring: a bounded pool of buffer slots
plus a memcpy-bandwidth pipe. A staged copy moves in ``buffer_bytes``
pieces back to back on the pipe. Their schedule is plain arithmetic,
so :meth:`DmaStaging.stage` computes it in closed form and waits on
one event for the whole copy instead of two per piece. Its occupancy
statistics let tests verify the paper's claim that shared-memory usage
stays small.
"""

from __future__ import annotations

from typing import Generator

from ..sim import BandwidthPipe, Event, Resource, Simulator

__all__ = ["DmaStaging"]

#: Private→shared memcpy bandwidth (B/s); DDR copy, faster than PCIe.
MEMCPY_BANDWIDTH = 200e9


class DmaStaging:
    """Fixed ring of shared-memory bounce buffers."""

    def __init__(
        self,
        sim: Simulator,
        buffer_bytes: int = 16 * 1024 * 1024,
        buffers: int = 4,
        memcpy_bandwidth: float = MEMCPY_BANDWIDTH,
    ) -> None:
        if buffer_bytes <= 0 or buffers <= 0:
            raise ValueError("buffer_bytes and buffers must be positive")
        self.sim = sim
        self.buffer_bytes = buffer_bytes
        self.buffers = buffers
        self._slots = Resource(sim, capacity=buffers)
        self._memcpy = BandwidthPipe(sim, memcpy_bandwidth, name="staging.memcpy")
        self.max_outstanding = 0
        self.stage_count = 0

    def stage(self, nbytes: int) -> Generator[Event, None, None]:
        """Copy validated ciphertext into shared memory.

        A process-style helper (``yield from staging.stage(n)``). It
        takes one ring slot for the whole copy, then books the copy's
        ``buffer_bytes`` pieces on the memcpy pipe back to back: each
        piece starts at ``max(t, busy)`` and ends ``piece / bandwidth``
        later, and ``t`` moves the way a chain of one timeout per piece
        would move the clock. The helper then waits on a single event
        at the exact finish time; ``tests/hw/test_staging_equivalence.py``
        holds this to the per-piece loop bit for bit.

        The runtime's wire-order chain serializes staging per machine.
        Stagers that do overlap each hold the pipe for their whole copy
        and are served in FIFO order: byte streams cannot interleave,
        as on any :class:`~repro.sim.BandwidthPipe`.
        """
        if nbytes <= 0:
            return
        yield self._slots.acquire()
        self.max_outstanding = max(self.max_outstanding, self._slots.in_use)
        try:
            sim = self.sim
            pipe = self._memcpy
            tracer = sim.tracer if sim.tracer.enabled else None
            full, tail = divmod(nbytes, self.buffer_bytes)
            durations = [pipe.duration_of(self.buffer_bytes)] * full
            if tail:
                durations.append(pipe.duration_of(tail))
            t = sim.now
            busy = pipe._busy_until
            for duration in durations:
                start = max(t, busy)
                busy = start + duration
                if tracer is not None:
                    tracer.record(pipe.name, "xfer", start, busy)
                t = t + (busy - t)
            pipe._busy_until = busy
            pipe.bytes_moved += nbytes
            pipe.jobs_done += len(durations)
            yield sim.at(t)
        finally:
            self._slots.release()
        self.stage_count += len(durations)
