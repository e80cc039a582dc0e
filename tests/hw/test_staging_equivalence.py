"""Differential harness: closed-form DMA staging ≡ the per-piece loop.

:meth:`repro.hw.DmaStaging.stage` books a copy's ``buffer_bytes``
pieces on the memcpy pipe arithmetically and waits on one event at the
finish time. :class:`PerPieceStaging` keeps the original loop — one
slot acquire and one pipe timeout per piece — verbatim as the
reference. Over serialized sequences of stages with random gaps (the
only way the runtime stages: its wire-order chain admits one copy at a
time per machine) both must agree exactly on every finish time, the
occupancy counters, the pipe's books and the recorded memcpy spans.
"""

from typing import Generator

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.hw import DmaStaging
from repro.sim import Event, Simulator


class PerPieceStaging(DmaStaging):
    """The per-piece staging loop, kept verbatim as the reference."""

    def stage(self, nbytes: int) -> Generator[Event, None, None]:
        remaining = nbytes
        while remaining > 0:
            piece = min(remaining, self.buffer_bytes)
            yield self._slots.acquire()
            self.max_outstanding = max(self.max_outstanding, self._slots.in_use)
            try:
                yield self._memcpy.transfer(piece)
            finally:
                self._slots.release()
            self.stage_count += 1
            remaining -= piece


def execute(cls, queue, buffer_bytes, bandwidth, traced, ops):
    """Stage ``ops`` back to back; return all the observable state.

    Each op is ``(gap, nbytes, ahead)``: wait ``gap``, put an unwaited
    ``ahead``-byte job on the memcpy pipe so its horizon may run ahead
    of the clock, then stage ``nbytes``.
    """
    sim = Simulator(queue=queue)
    sim.tracer.enabled = traced
    staging = cls(sim, buffer_bytes=buffer_bytes, buffers=4, memcpy_bandwidth=bandwidth)
    finishes = []

    def driver():
        for gap, nbytes, ahead in ops:
            if gap:
                yield sim.timeout(gap)
            if ahead:
                staging._memcpy.transfer(ahead)
            yield from staging.stage(nbytes)
            finishes.append(sim.now)

    sim.process(driver())
    sim.run()
    pipe = staging._memcpy
    return {
        "finishes": finishes,
        "now": sim.now,
        "stage_count": staging.stage_count,
        "max_outstanding": staging.max_outstanding,
        "busy_time": pipe.busy_time(),
        "bytes_moved": pipe.bytes_moved,
        "jobs_done": pipe.jobs_done,
        "spans": sim.tracer.spans,
    }


BUFFER_BYTES = [1, 7, 4096, 16 * 1024 * 1024]
BANDWIDTHS = [200e9, 7.3e9, 1e9, 3.0]

#: Gaps between stages, heavy on zero (back-to-back copies) and on tiny
#: start times, where a copy's finish exceeds twice its start and
#: ``now + (finish - now)`` stops being exact.
gaps = st.one_of(
    st.sampled_from([0.0, 0.0, 1e-12, 1e-9, 1.5437580573249268e-08, 0.1, 1.7]),
    st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
)


@st.composite
def workloads(draw):
    buffer_bytes = draw(st.sampled_from(BUFFER_BYTES))
    # Below, equal to, a multiple of and not a multiple of the buffer
    # size, and zero bytes.
    sizes = st.builds(
        lambda pieces, tail: pieces * buffer_bytes + tail,
        st.integers(0, 12),
        st.sampled_from(sorted({0, 1, buffer_bytes // 2, buffer_bytes - 1})),
    )
    aheads = st.sampled_from([0, 0, 0, 1, buffer_bytes, 3 * buffer_bytes + 1])
    ops = draw(st.lists(st.tuples(gaps, sizes, aheads), min_size=1, max_size=8))
    return buffer_bytes, draw(st.sampled_from(BANDWIDTHS)), draw(st.booleans()), ops


@pytest.mark.parametrize("queue", ["heap", "fast"])
class TestStagingEquivalence:
    @given(workload=workloads())
    @settings(max_examples=300, deadline=None)
    @example(workload=(4096, 200e9, True, [(1.5437580573249268e-08, 4 * 4096, 0)]))
    @example(workload=(7, 3.0, True, [(0.0, 0, 0), (0.0, 7, 0), (0.0, 6, 7), (0.0, 15, 0)]))
    def test_closed_form_matches_per_piece_loop(self, queue, workload):
        buffer_bytes, bandwidth, traced, ops = workload
        reference = execute(PerPieceStaging, queue, buffer_bytes, bandwidth, traced, ops)
        closed = execute(DmaStaging, queue, buffer_bytes, bandwidth, traced, ops)
        assert closed == reference

    def test_rounding_case_lands_on_the_exact_finish(self, queue):
        # A copy started at a tiny time ends past twice its start, so
        # waiting sum(pieces) from the start would round off the finish.
        start = 1.5437580573249268e-08
        ops = [(start, 4 * 4096, 0)]
        closed = execute(DmaStaging, queue, 4096, 200e9, False, ops)
        (finish,) = closed["finishes"]
        assert finish > 2 * start
        assert start + (finish - start) != finish
        reference = execute(PerPieceStaging, queue, 4096, 200e9, False, ops)
        assert closed["finishes"] == reference["finishes"]


class TestOverlappedStagers:
    """Stagers that overlap each hold the pipe for a whole copy, FIFO."""

    MB = 1 << 20

    def run(self, starts_and_sizes, buffers):
        # One piece per second: 1 MB buffers over a 1 MB/s pipe.
        sim = Simulator()
        sim.tracer.enabled = True
        staging = DmaStaging(sim, buffer_bytes=self.MB, buffers=buffers,
                             memcpy_bandwidth=float(self.MB))
        finishes = {}

        def stager(name, start, nbytes):
            yield sim.timeout(start)
            yield from staging.stage(nbytes)
            finishes[name] = sim.now

        for name, (start, nbytes) in enumerate(starts_and_sizes):
            sim.process(stager(name, start, nbytes))
        sim.run()
        spans = [(span.start, span.end) for span in sim.tracer.spans]
        return staging, finishes, spans

    def test_whole_jobs_in_fifo_order(self):
        staging, finishes, spans = self.run([(0.0, 3 * self.MB), (0.5, 2 * self.MB)], buffers=4)
        # The second copy queues behind all of the first, not between
        # its pieces.
        assert finishes == {0: 3.0, 1: 5.0}
        assert spans == [(0.0, 1.0), (1.0, 2.0), (2.0, 3.0), (3.0, 4.0), (4.0, 5.0)]
        assert staging.stage_count == 5
        assert staging.max_outstanding == 2

    def test_slots_bound_outstanding_copies(self):
        sizes = [(0.0, 2 * self.MB), (0.5, 1 * self.MB), (0.5, 1 * self.MB)]
        staging, finishes, _ = self.run(sizes, buffers=2)
        # The third stager waits for the first copy's slot, then queues
        # behind the second copy on the pipe.
        assert finishes == {0: 2.0, 1: 3.0, 2: 4.0}
        assert staging.max_outstanding == 2
