"""vLLM-like serving engine with KV-cache swapping.

Reproduces the substrate of the paper's case study 2 (§3) and the
Fig. 3b / Fig. 8 / Fig. 9 / Fig. 10 experiments: model weights stay
resident; memory pressure from many concurrent requests is handled by
request-wise KV swapping (preempt → swap out → resume LIFO). Every
iteration also moves small control transfers (token ids in, sampled
tokens out) — the traffic that perturbs PipeLLM's IV stream and
exercises NOP padding and the adaptive leeway.

Scheduling is the shared :class:`~repro.serving.vllm.BatchState`;
the engine adds the machine I/O. It runs against any
:class:`DeviceRuntime`; the normalized latency metric (s per output
token, averaged over requests) matches the paper's serving plots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ...cc.api import DeviceRuntime
from ...cc.machine import Machine
from ...hw.memory import MemoryChunk
from ...models import KvGeometry, ModelSpec, TransformerCostModel
from ...sim import SeededRng, mean, percentile
from ...workloads import Request
from .scheduler import BatchState, SequenceGroup

__all__ = ["VllmConfig", "VllmEngine", "VllmResult"]

#: Functional payload bytes for KV swap chunks and control transfers.
_PAYLOAD_BYTES = 16


@dataclass
class VllmConfig:
    """One vLLM serving test case."""

    spec: ModelSpec
    requests: List[Request]
    block_size: int = 16
    #: GPU bytes kept free for activations and workspace.
    reserve_bytes: int = 4 << 30
    seed: int = 1
    #: Safety horizon (simulated seconds) after which the run aborts.
    max_sim_time: float = 36_000.0


@dataclass
class VllmResult:
    """Latency summary of one run."""

    normalized_latencies: List[float]
    elapsed: float
    swap_out_count: int
    swap_in_count: int
    finished: int

    @property
    def mean_normalized_latency(self) -> float:
        """Seconds per generated token, averaged over requests."""
        return mean(self.normalized_latencies)

    def latency_percentile(self, q: float) -> float:
        """Normalized-latency percentile across requests (q in [0,100])."""
        return percentile(self.normalized_latencies, q)


class VllmEngine:
    """Continuous batching + request-wise KV swapping."""

    def __init__(self, machine: Machine, runtime: DeviceRuntime, config: VllmConfig) -> None:
        if not config.requests:
            raise ValueError("config.requests must not be empty")
        self.machine = machine
        self.runtime = runtime
        self.config = config
        self.cost = TransformerCostModel(config.spec)
        self.geometry = KvGeometry(config.spec, block_size=config.block_size)
        self._rng = SeededRng(config.seed)

        total_blocks = self.geometry.gpu_block_budget(
            machine.params.gpu_memory_bytes, reserved_bytes=config.reserve_bytes
        )
        self.finished: List[SequenceGroup] = []
        self.batch = BatchState(
            self.geometry, total_blocks, prefer_started=True, on_finish=self.finished.append
        )
        self.blocks = self.batch.blocks
        self._future = sorted(
            (SequenceGroup(request=r) for r in config.requests),
            key=lambda g: g.request.arrival_time,
        )
        for group in self._future:
            peak = self.batch.peak_blocks(group)
            if peak > total_blocks:
                raise ValueError(
                    f"request {group.request.request_id} needs {peak} KV blocks at its "
                    f"peak; the GPU budget is {total_blocks}"
                )
        machine.gpu.alloc("weights", config.spec.total_bytes)
        machine.gpu.alloc("kv-pool", total_blocks * self.geometry.block_bytes)
        # Reusable host buffers for the per-iteration control traffic.
        self._token_in = machine.host_memory.allocate(4096, "tokens.in", b"\x01" * 8)
        self._token_out = machine.host_memory.allocate(4096, "tokens.out", b"\x02" * 8)

        self.swap_out_count = 0
        self.swap_in_count = 0
        self.result: Optional[VllmResult] = None

    # -- public API -------------------------------------------------------------

    def run(self) -> VllmResult:
        self.machine.sim.process(self._main())
        self.machine.run()
        if self.result is None:
            raise RuntimeError("vLLM run did not complete")
        return self.result

    # -- engine loop ---------------------------------------------------------------

    def _main(self):
        sim = self.machine.sim
        start = sim.now
        while self._future or self.batch.outstanding:
            if sim.now - start > self.config.max_sim_time:
                break
            self._admit_arrivals()
            step_start = sim.now
            made_progress = yield from self._iteration()
            if made_progress:
                # One scheduler step on the "serving" telemetry lane.
                sim.tracer.record("serving.vllm", "step", step_start, sim.now)
            if not made_progress:
                if not self._future:
                    break  # Nothing running and nothing coming.
                next_arrival = self._future[0].request.arrival_time
                yield sim.timeout(max(next_arrival - sim.now, 1e-6))
        self._finalize(sim.now - start)

    def _iteration(self):
        """One scheduler step; returns False when there was no work."""
        batch = self.batch
        swapped_in = [(g, self._issue_swap_in(g)) for g in batch.resume()]
        prefill_groups = batch.admit()
        if not batch.running:
            return False

        # Block growth for this decode step; preempt until it fits.
        yield from batch.make_room(self._swap_out)

        # Newly admitted prompts go up as small transfers (decode-step
        # inputs live on the GPU — only fresh prompt tokens cross the
        # bus host→device).
        for group in prefill_groups:
            self.runtime.memcpy_h2d(
                MemoryChunk(self._token_in.addr, max(4 * group.prefill_tokens, _PAYLOAD_BYTES),
                            b"\x01" * _PAYLOAD_BYTES, "tokens.in")
            )
        # The batch boundary: everything must be on-device before the
        # step's kernels run (cudaDeviceSynchronize in the paper).
        yield self.runtime.synchronize()
        for group, region in swapped_in:
            # The group may have been re-preempted meanwhile (and own a
            # NEW region); free exactly the region this swap-in consumed.
            self.machine.host_memory.free(region)
            if group.swap_region is region:
                group.swap_region = None

        work = batch.step_work(prefill_groups, self.cost)
        yield self.machine.gpu.compute(work.flops, work.bytes_touched, layers=work.layers)

        # Sampled tokens come back as a small transfer (not waited on).
        self.runtime.memcpy_d2h(
            MemoryChunk(self._token_out.addr, max(4 * batch.running_seqs, _PAYLOAD_BYTES),
                        b"\x02" * _PAYLOAD_BYTES, "tokens.out")
        )

        batch.advance(self.machine.sim.now)
        return True

    def _admit_arrivals(self) -> None:
        now = self.machine.sim.now
        while self._future and self._future[0].request.arrival_time <= now:
            self.batch.waiting.append(self._future.pop(0))

    # -- swapping -----------------------------------------------------------------------

    def _swap_out(self, group: SequenceGroup):
        nbytes = group.kv_bytes(self.geometry)
        tag = f"kv.{group.owner}.e{group.swap_epoch}"
        payload = self._rng.fork(tag).bytes(_PAYLOAD_BYTES)
        region = self.machine.host_memory.allocate(nbytes, tag=tag)
        group.swap_region = region
        # Seed the GPU-side functional contents so the D2H carries
        # deterministic bytes that the later swap-in must reproduce.
        self.machine.gpu._contents[tag] = payload
        handle = self.runtime.memcpy_d2h(MemoryChunk(region.addr, nbytes, payload, tag))
        yield handle.api_done
        self.swap_out_count += 1

    def _issue_swap_in(self, group: SequenceGroup):
        """Start the H2D of a resumed group; returns the region it
        consumes (freed after the batch's synchronization barrier)."""
        region = group.swap_region
        if region is None:
            raise RuntimeError(f"{group.owner} swapped without a region")
        self.runtime.memcpy_h2d(self.machine.host_memory.chunk_at(region.addr))
        self.swap_in_count += 1
        return region

    # -- termination ------------------------------------------------------------------------------

    def _finalize(self, elapsed: float) -> None:
        self.result = VllmResult(
            normalized_latencies=[g.normalized_latency() for g in self.finished],
            elapsed=elapsed,
            swap_out_count=self.swap_out_count,
            swap_in_count=self.swap_in_count,
            finished=len(self.finished),
        )
