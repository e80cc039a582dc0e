"""Host time at a fixed reference speed, gauged while the work runs.

The benchmark shares a few cores of a host with other tenants, and the
same simulator pass can take 0.4 s or 0.65 s a few seconds apart; the
host flips between a fast and a slow speed many times a second, and
the CPU time grows with the wall time, so no process clock removes the
swing. A :class:`SpeedProbe` therefore samples the speed during every
timed phase: a timer signal interrupts the phase every
:data:`INTERVAL_S` and runs a short fixed loop. The loop's speed is
``PROBE_S / loop time``. A phase's *scaled* time is its wall time less
the probe's own time, times the mean over its samples of the speed to
the power :data:`SENSITIVITY`: the seconds the phase would take on a
host that always runs the loop in :data:`PROBE_S`.

The loop imports nothing from the simulator, so a change to the
simulator moves the phase and not the yardstick. It mirrors the
simulator's instruction mix (a heap-ordered event queue of small
objects, dict updates, a generator, method calls, string building),
but when the host slows, the loop slows more than the simulator does
(1.7x against 1.5-1.6x on a 2-vCPU Xeon guest); hence the power. The
objects it allocates are freed before it returns, and the garbage collector is
kept out of it, so it leaves the simulator's heap and collection
schedule as they were.
"""

from __future__ import annotations

import gc
import heapq
import signal
import statistics
import time
from typing import List

__all__ = ["INTERVAL_S", "PROBE_S", "SENSITIVITY", "SpeedProbe"]

#: Rounds of the probe loop, and its nominal seconds: a scaled time
#: reads "seconds on a host that runs the loop in PROBE_S".
PROBE_ROUNDS = 40
PROBE_S = 5e-4
#: Seconds between two probes (the probe costs about 2% of a phase).
INTERVAL_S = 0.02
#: How the simulator's speed follows the loop's: as its power 0.8. Fit
#: per pass on the tp and serve workloads, where the spread of scaled
#: pass times is least at 0.9 and 0.7.
SENSITIVITY = 0.8
#: Probe loops run before the first sample, so that the samples see
#: specialised bytecode.
WARMUP_LOOPS = 50


class _Event:
    __slots__ = ("at", "key")

    def __init__(self, at: float, key: int) -> None:
        self.at = at
        self.key = key

    def fire(self, table: dict) -> None:
        table[self.key] = table.get(self.key, 0.0) + self.at


def _arrivals(count: int):
    for index in range(count):
        yield index * 0.5


def _work(rounds: int) -> float:
    heap: list = []
    table: dict = {}
    seq = 0
    total = 0.0
    for step in range(rounds):
        for at in _arrivals(8):
            seq += 1
            heapq.heappush(heap, (at + step, seq, _Event(at, seq % 97)))
        while len(heap) > 16:
            at, _, event = heapq.heappop(heap)
            event.fire(table)
            total += at
        total += len("".join([str(k) for k in range(6)]))
    return total + sum(table.values())


class SpeedProbe:
    """Samples the host's speed while a phase runs.

    ``start()`` arms the timer and ``stop()`` disarms it; ``scaled(wall)``
    converts the wall seconds of the phase between them. A probe times
    one phase at a time, on the main thread.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        for _ in range(WARMUP_LOOPS):
            self._loop()
        signal.signal(signal.SIGALRM, self._sample)

    @staticmethod
    def _loop() -> float:
        start = time.perf_counter()
        _work(PROBE_ROUNDS)
        return time.perf_counter() - start

    def _sample(self, signum, frame) -> None:
        collecting = gc.isenabled()
        gc.disable()
        try:
            self.samples.append(self._loop())
        finally:
            if collecting:
                gc.enable()

    def start(self) -> None:
        self.samples = []
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)

    def scaled(self, wall: float) -> float:
        """``wall`` seconds of the last phase at the reference speed."""
        if not self.samples:  # shorter than one interval: gauge it now
            return wall * (PROBE_S / self._loop()) ** SENSITIVITY
        own = sum(self.samples)
        speed = statistics.fmean((PROBE_S / s) ** SENSITIVITY for s in self.samples)
        return (wall - own) * speed
