"""Differential harness: one ``BatchState`` ≡ the three loops it replaced.

:class:`repro.serving.vllm.BatchState` is the continuous-batching
scheduler under the single-machine :class:`VllmEngine`, the cluster's
:class:`Replica` and the disaggregated :class:`DecodeWorker`. Each of
them used to carry its own admit / resume / make-room / swap-out /
step-work / advance code; those loops are kept below verbatim as the
references (``ReferenceVllmEngine``, ``ReferenceReplica``,
``ReferenceDecodeWorker``), with only the write-only bookkeeping
dropped and vLLM's two removed knobs pinned to their values.

Hypothesis traces with tight KV budgets, ``parallel_n`` from 1 to 6,
repeat tenants (prefix hits) and both disaggregated paths (migrated
and monolithic) drive each reference and its driver, and every
observable must agree exactly: per-request finish times, swap and
prefix counts, and the step lane.

Every request's peak KV need stays within ``total − watermark``: the
references could stall forever on a lone swapped group inside the
watermark, and crash on a request larger than the whole budget.
``tests/cluster/test_cluster.py::TestKvBudgetEdges`` pins those two
mended defects against the drivers alone.
"""

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple
from unittest import mock

from hypothesis import HealthCheck, example, given, settings, strategies as st

import repro.cluster.cluster as cluster_module
import repro.disagg.cluster as disagg_module
from repro.cc import CcMode, CudaContext, Machine, build_attested_machine, build_machine
from repro.cluster import Cluster, ClusterRequest, Replica, ReplicaDead
from repro.core import ClusterConfig, DisaggConfig, PipeLLMRuntime
from repro.disagg import DecodeWorker, DisaggCluster, DisaggRequest, WorkerDead
from repro.hw import default_params, get_params
from repro.hw.memory import MemoryChunk
from repro.models import OPT_13B, KvGeometry, LayerWork
from repro.serving.vllm import BlockManager, SequenceGroup, VllmConfig, VllmEngine
from repro.serving.vllm.engine import VllmResult
from repro.sim import mean
from repro.tracing import active_collector
from repro.workloads import Request

GEOMETRY = KvGeometry(OPT_13B, block_size=16)

#: The values of vLLM's removed ``max_num_seqs``/``resume_watermark``
#: knobs and of the replica's own watermark constant.
REF_MAX_NUM_SEQS = 256
REF_RESUME_WATERMARK = 0.02

_PAYLOAD_BYTES = 16


# -- references: the three loops, verbatim ----------------------------------


@dataclass
class ReferenceQueues:
    """The engine's scheduler queues and victim choice, verbatim."""

    waiting: List[SequenceGroup] = field(default_factory=list)
    running: List[SequenceGroup] = field(default_factory=list)
    swapped: List[SequenceGroup] = field(default_factory=list)
    finished: List[SequenceGroup] = field(default_factory=list)

    @property
    def running_seqs(self) -> int:
        return sum(g.request.parallel_n for g in self.running)

    def pick_victim(self) -> Optional[SequenceGroup]:
        candidates = [g for g in self.running if g.generated > 0]
        if not candidates:
            candidates = self.running
        if not candidates:
            return None
        return max(candidates, key=lambda g: (g.request.arrival_time, g.request.request_id))


class ReferenceVllmEngine(VllmEngine):
    """The engine loop before ``BatchState``, verbatim."""

    def __init__(self, machine, runtime, config) -> None:
        super().__init__(machine, runtime, config)
        self.state = ReferenceQueues(finished=self.finished)

    def _main(self):
        sim = self.machine.sim
        start = sim.now
        while not self._all_done():
            if sim.now - start > self.config.max_sim_time:
                break
            self._admit_arrivals()
            step_start = sim.now
            made_progress = yield from self._iteration()
            if made_progress:
                sim.tracer.record("serving.vllm", "step", step_start, sim.now)
            if not made_progress:
                next_arrival = self._next_arrival_time()
                if next_arrival is None:
                    break
                yield sim.timeout(max(next_arrival - sim.now, 1e-6))
        self._finalize(sim.now - start)

    def _iteration(self):
        state = self.state
        swapped_in = self._schedule_swap_ins()
        prefill_groups = self._schedule_admissions()
        if not state.running:
            return False
        yield from self._make_room()
        for group in prefill_groups:
            self.runtime.memcpy_h2d(
                MemoryChunk(self._token_in.addr, max(4 * group.request.prompt_len, _PAYLOAD_BYTES),
                            b"\x01" * _PAYLOAD_BYTES, "tokens.in")
            )
        yield self.runtime.synchronize()
        for group, region in swapped_in:
            self.machine.host_memory.free(region)
            if group.swap_region is region:
                group.swap_region = None
        work = self._step_work(prefill_groups)
        yield self.machine.gpu.compute(work.flops, work.bytes_touched, layers=work.layers)
        self.runtime.memcpy_d2h(
            MemoryChunk(self._token_out.addr, max(4 * state.running_seqs, _PAYLOAD_BYTES),
                        b"\x02" * _PAYLOAD_BYTES, "tokens.out")
        )
        self._advance_generation()
        return True

    def _admit_arrivals(self) -> None:
        now = self.machine.sim.now
        while self._future and self._future[0].request.arrival_time <= now:
            self.state.waiting.append(self._future.pop(0))

    def _next_arrival_time(self) -> Optional[float]:
        if self._future:
            return self._future[0].request.arrival_time
        return None

    def _schedule_swap_ins(self):
        resumed = []
        state = self.state
        watermark = int(self.blocks.total_blocks * REF_RESUME_WATERMARK)
        while state.swapped:
            group = state.swapped[-1]
            needed = group.blocks_held(self.geometry)
            if not self.blocks.can_allocate(needed + watermark):
                break
            if state.running_seqs + group.request.parallel_n > REF_MAX_NUM_SEQS:
                break
            state.swapped.pop()
            self.blocks.allocate(group.owner, needed)
            region = group.swap_region
            self._issue_swap_in(group)
            state.running.append(group)
            resumed.append((group, region))
        return resumed

    def _schedule_admissions(self) -> List[SequenceGroup]:
        admitted: List[SequenceGroup] = []
        state = self.state
        while state.waiting and not state.swapped:
            group = state.waiting[0]
            needed = group.blocks_held(self.geometry)
            if not self.blocks.can_allocate(needed):
                break
            if state.running_seqs + group.request.parallel_n > REF_MAX_NUM_SEQS:
                break
            state.waiting.pop(0)
            self.blocks.allocate(group.owner, needed)
            state.running.append(group)
            admitted.append(group)
        return admitted

    def _make_room(self):
        state = self.state
        while True:
            grants = [
                (g.owner, n) for g in state.running
                if (n := g.step_block_growth(self.geometry))
            ]
            growth = sum(n for _owner, n in grants)
            if self.blocks.can_allocate(growth) or len(state.running) <= 1:
                break
            victim = state.pick_victim()
            if victim is None:
                break
            yield from self._swap_out(victim)
        for owner, n in grants:
            self.blocks.allocate(owner, n)
        return growth

    def _swap_out(self, group: SequenceGroup):
        state = self.state
        state.running.remove(group)
        nbytes = group.kv_bytes(self.geometry)
        group.swap_epoch += 1
        tag = f"kv.{group.owner}.e{group.swap_epoch}"
        payload = self._rng.fork(tag).bytes(_PAYLOAD_BYTES)
        region = self.machine.host_memory.allocate(nbytes, tag=tag)
        group.swap_region = region
        self.machine.gpu._contents[tag] = payload
        handle = self.runtime.memcpy_d2h(MemoryChunk(region.addr, nbytes, payload, tag))
        yield handle.api_done
        self.blocks.free_owner(group.owner)
        state.swapped.append(group)
        self.swap_out_count += 1

    def _issue_swap_in(self, group: SequenceGroup):
        region = group.swap_region
        if region is None:
            raise RuntimeError(f"{group.owner} swapped without a region")
        chunk = self.machine.host_memory.chunk_at(region.addr)
        handle = self.runtime.memcpy_h2d(chunk)
        self.swap_in_count += 1
        return handle

    def _step_work(self, prefill_groups: List[SequenceGroup]):
        prefill_tokens = sum(g.request.prompt_len for g in prefill_groups)
        decode_groups = [g for g in self.state.running if g not in prefill_groups]
        decode_seqs = sum(g.request.parallel_n for g in decode_groups)
        flops = 0.0
        bytes_touched = 0.0
        if prefill_tokens:
            w = self.cost.prefill(prefill_tokens)
            flops += w.flops
            bytes_touched += w.bytes_touched
        if decode_seqs:
            ctx = mean([float(g.context_len()) for g in decode_groups])
            w = self.cost.decode_step(decode_seqs, ctx)
            flops += w.flops
            bytes_touched += w.bytes_touched
        return LayerWork(flops, bytes_touched, layers=self.config.spec.n_layers)

    def _advance_generation(self) -> None:
        now = self.machine.sim.now
        still_running: List[SequenceGroup] = []
        for group in self.state.running:
            group.generated += 1
            if group.done:
                group.finish_time = now
                self.blocks.free_owner(group.owner)
                self.state.finished.append(group)
            else:
                still_running.append(group)
        self.state.running = still_running

    def _all_done(self) -> bool:
        state = self.state
        return not (self._future or state.waiting or state.running or state.swapped)

    def _finalize(self, elapsed: float) -> None:
        latencies = [g.normalized_latency() for g in self.state.finished]
        self.result = VllmResult(
            normalized_latencies=latencies,
            elapsed=elapsed,
            swap_out_count=self.swap_out_count,
            swap_in_count=self.swap_in_count,
            finished=len(self.state.finished),
        )


@dataclass(eq=False)
class _Served:
    creq: ClusterRequest
    group: SequenceGroup
    prefill_tokens: int = 0


class ReferenceReplica(Replica):
    """The replica's own serving loop before ``BatchState``, verbatim."""

    def boot(self) -> None:
        self.epoch += 1
        suffix = f"r{self.replica_id}.e{self.epoch}".encode()
        if self.system == "native":
            self.machine = Machine(
                CcMode.DISABLED, params=self.params, sim=self.sim, faults=self.faults
            )
            self.runtime = CudaContext(self.machine)
        else:
            self.machine = build_attested_machine(
                params=self.params,
                sim=self.sim,
                device_id=f"gpu-{self.replica_id}",
                host_seed=b"cvm:" + suffix,
                device_seed=b"dev:" + suffix,
                faults=self.faults,
            )
            if self.system == "pipellm":
                self.runtime = PipeLLMRuntime(self.machine)
            else:
                self.runtime = CudaContext(self.machine)
        self.machine.telemetry.label = f"replica-{self.replica_id}.e{self.epoch}"
        total_blocks = self.geometry.gpu_block_budget(
            self.params.gpu_memory_bytes, reserved_bytes=self.reserve_bytes
        )
        self.blocks = BlockManager(total_blocks)
        self.machine.gpu.alloc("weights", self.spec.total_bytes)
        self.machine.gpu.alloc("kv-pool", total_blocks * self.geometry.block_bytes)
        self.runtime.hint_kv_block_size(self.geometry.block_bytes)
        self._token_in = self.machine.host_memory.allocate(
            4096, f"r{self.replica_id}.tokens.in", b"\x01" * 8
        )
        self._token_out = self.machine.host_memory.allocate(
            4096, f"r{self.replica_id}.tokens.out", b"\x02" * 8
        )
        self._queue: List[ClusterRequest] = []
        self.running: List[_Served] = []
        self.swapped: List[_Served] = []
        self.prefix_cache = {}
        self.alive = True
        self._wake = self.sim.event()
        self._loop_proc = self.sim.process(self._loop(self.epoch))

    @property
    def outstanding(self) -> int:
        return len(self._queue) + len(self.running) + len(self.swapped)

    def submit(self, creq: ClusterRequest) -> None:
        if not self.alive:
            raise ReplicaDead(f"replica-{self.replica_id} is down")
        creq.state = "dispatched"
        creq.replica_history.append(self.replica_id)
        self._queue.append(creq)
        self._kick()

    def _loop(self, epoch: int):
        sim = self.sim
        while self.alive and self.epoch == epoch:
            resumed = self._resume_swapped()
            admitted = self._admit()
            if not self.running:
                self._reject_unservable()
                if not (self._queue or self.swapped):
                    self._wake = sim.event()
                    yield self._wake
                continue
            yield from self._make_room()
            for served in admitted:
                size = max(4 * served.prefill_tokens, _PAYLOAD_BYTES)
                with self.machine.telemetry.bound_trace(served.creq.trace_attempt):
                    self.runtime.memcpy_h2d(MemoryChunk(
                        self._token_in.addr, size, b"\x01" * _PAYLOAD_BYTES,
                        f"r{self.replica_id}.tokens.in",
                    ))
            yield self.runtime.synchronize()
            for served, region in resumed:
                self.machine.host_memory.free(region)
                if served.group.swap_region is region:
                    served.group.swap_region = None
            step_start = sim.now
            work = self._step_work(admitted)
            yield self.machine.gpu.compute(work.flops, work.bytes_touched, layers=work.layers)
            sim.tracer.record(f"cluster.replica-{self.replica_id}", "step", step_start, sim.now)
            collector = active_collector()
            if collector is not None and sim.now > step_start:
                label = f"replica-{self.replica_id}.e{self.epoch}"
                for served in self.running:
                    if served.creq.trace_attempt is not None:
                        collector.add(
                            served.creq.trace_attempt, "step", "compute",
                            label, step_start, sim.now,
                        )
            seqs = sum(s.group.request.parallel_n for s in self.running)
            self.runtime.memcpy_d2h(MemoryChunk(
                self._token_out.addr, max(4 * seqs, _PAYLOAD_BYTES),
                b"\x02" * _PAYLOAD_BYTES, f"r{self.replica_id}.tokens.out",
            ))
            self._advance()

    def _resume_swapped(self) -> List[Tuple[_Served, object]]:
        resumed = []
        watermark = int(self.blocks.total_blocks * REF_RESUME_WATERMARK)
        while self.swapped:
            served = self.swapped[-1]
            needed = served.group.blocks_held(self.geometry)
            if not self.blocks.can_allocate(needed + watermark):
                break
            self.swapped.pop()
            self.blocks.allocate(served.group.owner, needed)
            region = served.group.swap_region
            if region is None:
                raise RuntimeError(f"{served.group.owner} swapped without a region")
            with self.machine.telemetry.bound_trace(served.creq.trace_attempt):
                self.runtime.memcpy_h2d(self.machine.host_memory.chunk_at(region.addr))
            self.swap_in_count += 1
            served.creq.state = "running"
            self.running.append(served)
            resumed.append((served, region))
        return resumed

    def _admit(self) -> List[_Served]:
        admitted: List[_Served] = []
        while self._queue and not self.swapped:
            creq = self._queue[0]
            group = SequenceGroup(request=creq.request)
            if not self.blocks.can_allocate(group.blocks_held(self.geometry)):
                break
            self._queue.pop(0)
            self.blocks.allocate(group.owner, group.blocks_held(self.geometry))
            cached = self.prefix_cache.get(creq.tenant, 0)
            prefill = 0 if cached >= creq.request.prompt_len else creq.request.prompt_len
            creq.prefix_hit = prefill == 0
            if creq.prefix_hit:
                self.prefix_hits += 1
            creq.state = "running"
            served = _Served(creq, group, prefill_tokens=prefill)
            self.running.append(served)
            admitted.append(served)
        return admitted

    def _reject_unservable(self) -> None:
        def too_big(group: SequenceGroup) -> bool:
            return group.blocks_held(self.geometry) > self.blocks.free_blocks

        if self.swapped and too_big(self.swapped[-1].group):
            served = self.swapped.pop()
            self.blocks.free_owner(served.group.owner)
            if served.group.swap_region is not None:
                self.machine.host_memory.free(served.group.swap_region)
                served.group.swap_region = None
            self.gateway.on_reject(served.creq, self, "kv-budget")
        elif self._queue and too_big(SequenceGroup(request=self._queue[0].request)):
            creq = self._queue.pop(0)
            self.gateway.on_reject(creq, self, "kv-budget")

    def _make_room(self):
        geometry = self.geometry
        while True:
            grants = [
                (s.group.owner, n) for s in self.running
                if (n := s.group.step_block_growth(geometry))
            ]
            if (self.blocks.can_allocate(sum(n for _owner, n in grants))
                    or len(self.running) <= 1):
                break
            victim = max(
                self.running,
                key=lambda s: (s.group.request.arrival_time, s.creq.rid),
            )
            yield from self._swap_out(victim)
        for owner, n in grants:
            self.blocks.allocate(owner, n)

    def _swap_out(self, served: _Served):
        self.running.remove(served)
        group = served.group
        nbytes = group.kv_bytes(self.geometry)
        group.swap_epoch += 1
        tag = f"r{self.replica_id}.kv.{group.owner}.e{group.swap_epoch}"
        payload = b"\x03" * _PAYLOAD_BYTES
        region = self.machine.host_memory.allocate(nbytes, tag=tag)
        group.swap_region = region
        self.machine.gpu._contents[tag] = payload
        with self.machine.telemetry.bound_trace(served.creq.trace_attempt):
            handle = self.runtime.memcpy_d2h(MemoryChunk(region.addr, nbytes, payload, tag))
        yield handle.api_done
        self.blocks.free_owner(group.owner)
        served.creq.state = "swapped"
        self.swapped.append(served)
        self.swap_out_count += 1

    def _step_work(self, admitted: List[_Served]) -> LayerWork:
        prefill_tokens = sum(s.prefill_tokens for s in admitted)
        decode = [s for s in self.running if s not in admitted or s.prefill_tokens == 0]
        decode_seqs = sum(s.group.request.parallel_n for s in decode)
        flops = 0.0
        bytes_touched = 0.0
        if prefill_tokens:
            work = self.cost.prefill(prefill_tokens)
            flops += work.flops
            bytes_touched += work.bytes_touched
        if decode_seqs:
            ctx = mean([float(s.group.context_len()) for s in decode])
            work = self.cost.decode_step(decode_seqs, ctx)
            flops += work.flops
            bytes_touched += work.bytes_touched
        return LayerWork(flops, bytes_touched, layers=self.spec.n_layers)

    def _advance(self) -> None:
        now = self.sim.now
        still: List[_Served] = []
        for served in self.running:
            group = served.group
            group.generated += 1
            self.gateway.on_token(served.creq, self, group.generated)
            if group.done:
                group.finish_time = now
                self.blocks.free_owner(group.owner)
                self._remember_prefix(served.creq)
                self.completed += 1
                self.gateway.on_complete(served.creq, self)
            else:
                still.append(served)
        self.running = still


@dataclass
class _Decoding:
    creq: DisaggRequest
    reserved: int
    prefill_tokens: int = 0
    generated: int = 0

    @property
    def done(self) -> bool:
        return self.generated >= self.creq.request.output_len

    def context_len(self) -> int:
        return self.creq.request.prompt_len + self.generated


class ReferenceDecodeWorker(DecodeWorker):
    """The decode worker's own batch loop before ``BatchState``, verbatim."""

    def _boot_state(self) -> None:
        self._queue: List[DisaggRequest] = []
        self.running: List[_Decoding] = []
        total_blocks = self.geometry.gpu_block_budget(
            self.params.gpu_memory_bytes, reserved_bytes=self.reserve_bytes
        )
        self.budget_bytes = total_blocks * self.geometry.block_bytes
        self.resident_bytes = 0

    def _orphans(self) -> List[DisaggRequest]:
        orphans = [d.creq for d in self.running] + list(self._queue)
        self._queue = []
        self.running = []
        self.resident_bytes = 0
        return orphans

    @property
    def outstanding(self) -> int:
        return len(self._queue) + len(self.running)

    def kv_reservation(self, creq: DisaggRequest) -> int:
        request = creq.request
        return self.geometry.bytes_for_tokens(
            request.prompt_len + request.output_len
        ) * request.parallel_n

    def submit_ready(self, creq: DisaggRequest) -> None:
        if not self.alive:
            raise WorkerDead(f"{self.label} is down")
        creq.state = "holding"
        creq.history.append(self.label)
        self._queue.append(creq)
        self._kick()

    def submit_local(self, creq: DisaggRequest) -> None:
        if not self.alive:
            raise WorkerDead(f"{self.label} is down")
        creq.state = "holding"
        creq.history.append(self.label)
        creq.kv_ready_time = self.sim.now
        self._queue.append(creq)
        self._kick()

    def _loop(self, epoch: int):
        sim = self.sim
        while self.alive and self.epoch == epoch:
            admitted = self._admit()
            if not self.running:
                self._wake = sim.event()
                yield self._wake
                continue
            step_start = sim.now
            work = self._step_work(admitted)
            yield self.machine.gpu.compute(
                work.flops, work.bytes_touched, layers=work.layers
            )
            sim.tracer.record(f"disagg.{self.label}", "step", step_start, sim.now)
            collector = active_collector()
            if collector is not None and sim.now > step_start:
                for decoding in self.running:
                    if decoding.creq.trace is not None:
                        collector.add(
                            decoding.creq.trace, "step", "compute",
                            self.incarnation, step_start, sim.now,
                        )
            self._advance()

    def _admit(self) -> List[_Decoding]:
        admitted: List[_Decoding] = []
        collector = active_collector()
        while self._queue:
            creq = self._queue[0]
            reserved = self.kv_reservation(creq)
            fits = self.resident_bytes + reserved <= self.budget_bytes
            if not fits and self.running:
                break
            if not fits:
                self._queue.pop(0)
                self.scheduler.on_reject(creq, self, "kv-budget")
                continue
            self._queue.pop(0)
            self.resident_bytes += reserved
            prefill = (
                creq.request.prompt_len if math.isnan(creq.prefill_done_time)
                else 0
            )
            if (collector is not None and creq.trace is not None
                    and not math.isnan(creq.kv_ready_time)
                    and self.sim.now > creq.kv_ready_time):
                collector.add(
                    creq.trace, "kv-hold", "hold", self.incarnation,
                    creq.kv_ready_time, self.sim.now,
                )
            creq.state = "decoding"
            generated = 1 if (
                prefill == 0 and not math.isnan(creq.first_token_time)
            ) else 0
            admitted.append(_Decoding(
                creq, reserved, prefill_tokens=prefill, generated=generated
            ))
            self.running.append(admitted[-1])
        return admitted

    def _step_work(self, admitted: List[_Decoding]) -> LayerWork:
        prefill_tokens = sum(
            d.prefill_tokens * d.creq.request.parallel_n for d in admitted
        )
        decode = [d for d in self.running if d.prefill_tokens == 0 or d not in admitted]
        decode_seqs = sum(d.creq.request.parallel_n for d in decode)
        flops = 0.0
        bytes_touched = 0.0
        if prefill_tokens:
            work = self.cost.prefill(prefill_tokens)
            flops += work.flops
            bytes_touched += work.bytes_touched
        if decode_seqs:
            ctx = mean([float(d.context_len()) for d in decode])
            work = self.cost.decode_step(decode_seqs, ctx)
            flops += work.flops
            bytes_touched += work.bytes_touched
        return LayerWork(flops, bytes_touched, layers=self.spec.n_layers)

    def _advance(self) -> None:
        now = self.sim.now
        still: List[_Decoding] = []
        for decoding in self.running:
            creq = decoding.creq
            if decoding.prefill_tokens:
                decoding.prefill_tokens = 0
                creq.prefill_done_time = now
            decoding.generated += 1
            self.scheduler.on_token(creq, self, decoding.generated)
            if decoding.done:
                self.resident_bytes -= decoding.reserved
                self.completed += 1
                self.scheduler.on_complete(creq, self)
            else:
                still.append(decoding)
        self.running = still


# -- traces -------------------------------------------------------------------


def reserve_for(blocks: int, gpu_memory_bytes: int) -> int:
    """GPU reserve that leaves exactly ``blocks`` KV blocks."""
    return gpu_memory_bytes - OPT_13B.total_bytes - blocks * GEOMETRY.block_bytes


def peak_blocks(request: Request, horizon: bool) -> int:
    blocks_for = GEOMETRY.blocks_for_tokens
    if horizon:
        return blocks_for(request.prompt_len + request.output_len) * request.parallel_n
    return blocks_for(request.prompt_len) + request.parallel_n * blocks_for(request.output_len)


def servable(requests: List[Request], blocks: int, horizon: bool = False) -> List[Request]:
    """The requests whose peak need stays within ``total − watermark``."""
    limit = blocks - int(blocks * REF_RESUME_WATERMARK)
    return [r for r in requests if peak_blocks(r, horizon) <= limit]


#: (gap, prompt tokens, output tokens, parallel_n, tenant). Prompts come
#: from a small set so repeat tenants find their prefix warm.
REQUEST = st.tuples(
    st.sampled_from([0.0, 0.0, 0.0, 1e-3, 0.05, 0.5]),
    st.sampled_from([1, 15, 16, 17, 33, 64, 200]),
    st.integers(1, 160),
    st.integers(1, 6),
    st.integers(0, 2),
)
TRACE = st.lists(REQUEST, min_size=1, max_size=12)
BLOCKS = st.integers(12, 100)


def build(trace) -> List[Tuple[Request, str]]:
    out, now = [], 0.0
    for rid, (gap, prompt, output, n, tenant) in enumerate(trace):
        now += gap
        out.append((Request(rid, now, prompt, output, parallel_n=n), f"tenant-{tenant}"))
    return out


def step_lane(sim, lane_prefix: str) -> list:
    return [s for s in sim.tracer.spans if s.lane.startswith(lane_prefix)]


# -- the engine ---------------------------------------------------------------


def run_engine(cls, requests: List[Request], blocks: int) -> dict:
    machine = build_machine(CcMode.DISABLED)
    machine.sim.tracer.enabled = True
    config = VllmConfig(
        OPT_13B, requests,
        reserve_bytes=reserve_for(blocks, machine.params.gpu_memory_bytes),
    )
    engine = cls(machine, CudaContext(machine), config)
    result = engine.run()
    return {
        "finish": [(g.request.request_id, g.finish_time) for g in engine.finished],
        "swaps": (result.swap_out_count, result.swap_in_count, result.finished),
        "elapsed": result.elapsed,
        "steps": step_lane(machine.sim, "serving.vllm"),
    }


#: Found by search: at 73 blocks (a 1-block watermark) a swapped group
#: is held back by the watermark beside the others, so a zero
#: watermark resumes it a step early and every later step moves.
WATERMARK_EDGE = [(1e-3, 64, 82, 4, 1), (0.0, 17, 104, 2, 0), (1e-3, 200, 137, 2, 2),
                  (1e-3, 200, 87, 2, 0), (1e-3, 16, 132, 5, 2)]
SWAP_HEAVY = [(0.0, 200, 40, 2, 0), (0.0, 200, 40, 2, 1), (1e-3, 64, 33, 4, 2),
              (0.02, 17, 48, 6, 0), (0.0, 480, 20, 1, 1)]


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(trace=TRACE, blocks=BLOCKS)
@example(trace=SWAP_HEAVY, blocks=80)
@example(trace=WATERMARK_EDGE, blocks=73)
def test_engine_matches_reference(trace, blocks):
    requests = servable([r for r, _tenant in build(trace)], blocks)
    if not requests:
        return
    assert run_engine(VllmEngine, requests, blocks) == run_engine(
        ReferenceVllmEngine, requests, blocks
    )


# -- the cluster replica ------------------------------------------------------


def run_fleet(replica_cls, trace, blocks: int, replicas: int) -> dict:
    entries = build(trace)
    keep = {r.request_id for r in servable([r for r, _t in entries], blocks)}
    config = ClusterConfig(
        replicas=replicas, system="native", max_outstanding=64,
        reserve_bytes=reserve_for(blocks, default_params().gpu_memory_bytes),
    )
    with mock.patch.object(cluster_module, "Replica", replica_cls):
        cluster = Cluster(config)
    cluster.sim.tracer.enabled = True
    creqs = [ClusterRequest(r.request_id, tenant, r, r.arrival_time)
             for r, tenant in entries if r.request_id in keep]
    if not creqs:
        return {}
    result = cluster.run(creqs)
    return {
        "finish": [(c.rid, c.state, c.finish_time, c.prefix_hit) for c in creqs],
        "replicas": [(r.swap_out_count, r.swap_in_count, r.prefix_hits, r.completed)
                     for r in cluster.replicas],
        "unfinished": result.unfinished,
        "steps": step_lane(cluster.sim, "cluster.replica-"),
    }


#: A and F start together; W waits until F finishes, then fills the
#: pool in the very step A crosses a block boundary. The latest arrival
#: (W) has no token yet, so the replica's victim is W — an engine that
#: preferred started groups would swap A instead.
ADMIT_THEN_GROW = [(0.0, 16, 160, 1, 0), (0.0, 16, 32, 1, 1), (0.0, 208, 10, 4, 2)]


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(trace=TRACE, blocks=BLOCKS, replicas=st.integers(1, 2))
@example(trace=SWAP_HEAVY, blocks=80, replicas=1)
@example(trace=ADMIT_THEN_GROW, blocks=20, replicas=1)
@example(trace=WATERMARK_EDGE, blocks=73, replicas=1)
def test_replica_matches_reference(trace, blocks, replicas):
    new = run_fleet(Replica, trace, blocks, replicas)
    assert new == run_fleet(ReferenceReplica, trace, blocks, replicas)
    assert not new or new["unfinished"] == 0


# -- the disaggregated decode worker -----------------------------------------


def run_disagg(worker_cls, trace, blocks: int, prefill_workers: int, decode_workers: int) -> dict:
    entries = build(trace)
    keep = {r.request_id for r in servable([r for r, _t in entries], blocks, horizon=True)}
    config = DisaggConfig(
        prefill_workers=prefill_workers, decode_workers=decode_workers, system="native",
        reserve_bytes=reserve_for(blocks, get_params("h100-cc").gpu_memory_bytes),
    )
    with mock.patch.object(disagg_module, "DecodeWorker", worker_cls):
        fleet = DisaggCluster(config)
    fleet.sim.tracer.enabled = True
    creqs = [
        DisaggRequest(r.request_id, tenant, r, r.arrival_time,
                      kv_bytes=GEOMETRY.bytes_for_tokens(r.prompt_len) * r.parallel_n)
        for r, tenant in entries if r.request_id in keep
    ]
    if not creqs:
        return {}
    result = fleet.run(creqs)
    return {
        "finish": [(c.rid, c.state, c.finish_time, c.first_token_time, c.prefill_done_time)
                   for c in creqs],
        "completed": [w.completed for w in fleet.decode_pool],
        "unfinished": result.unfinished,
        "steps": step_lane(fleet.sim, "disagg.d"),
    }


MONOLITHIC_N = [(0.0, 200, 20, 4, 0), (0.0, 64, 30, 1, 1), (0.02, 480, 10, 6, 2)]


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(trace=TRACE, blocks=BLOCKS, prefill_workers=st.integers(0, 1),
       decode_workers=st.integers(1, 2))
@example(trace=MONOLITHIC_N, blocks=120, prefill_workers=0, decode_workers=1)
def test_decode_worker_matches_reference(trace, blocks, prefill_workers, decode_workers):
    new = run_disagg(DecodeWorker, trace, blocks, prefill_workers, decode_workers)
    assert new == run_disagg(ReferenceDecodeWorker, trace, blocks, prefill_workers,
                             decode_workers)
    assert not new or new["unfinished"] == 0
