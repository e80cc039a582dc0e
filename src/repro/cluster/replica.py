"""One serving replica: a CVM+GPU machine plus its serving loop.

A :class:`Replica` owns one :class:`repro.cc.Machine` (embedded in the
cluster's shared simulator), the `DeviceRuntime` that machine serves
traffic through (PipeLLM, inline CC, or native), and a vLLM-style
continuous-batching loop that accepts *dynamically routed* requests
from the gateway — unlike the single-machine engines, the request set
is not known up front.

The loop reproduces the serving behaviour the cluster experiments
depend on:

* **continuous batching** — admitted requests decode in lock-step,
  one token per step, with prompt tokens and sampled tokens crossing
  the (encrypted) bus as control transfers every step;
* **KV-pressure swapping** — block growth beyond the replica's budget
  preempts the most recent group (request-wise swap-out over the CC
  channel, LIFO resume), exactly the traffic PipeLLM pipelines;
* **prefix KV reuse** — a tenant whose prompt prefix is still cached
  on this replica skips prefill compute and bytes, which is the win
  the gateway's affinity policy exists to harvest;
* **crash / recover** — a crash orphans every resident request back
  to the gateway for failover and tears the incarnation down; recovery
  re-runs the attested bring-up with fresh seeds (fresh session keys
  and IVs) and rejoins with an empty cache.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..cc import CcMode, CudaContext, Machine, build_attested_machine
from ..core import PipeLLMRuntime
from ..hw import HardwareParams, default_params
from ..hw.memory import MemoryChunk
from ..models import KvGeometry, LayerWork, ModelSpec, TransformerCostModel
from ..serving.vllm.block_manager import BlockManager
from ..serving.vllm.scheduler import GroupState, SequenceGroup
from ..sim import Simulator, mean
from ..tracing import active_collector
from ..workloads import Request

__all__ = ["ClusterRequest", "Replica", "ReplicaDead"]

#: Functional payload bytes for control and KV transfers.
_PAYLOAD_BYTES = 16

#: Tenants whose prompt prefixes one replica keeps warm.
_PREFIX_CACHE_TENANTS = 16

#: Resume hysteresis, mirroring vLLM's watermark.
_RESUME_WATERMARK = 0.02


class ReplicaDead(RuntimeError):
    """A request was submitted to a crashed replica."""


@dataclass
class ClusterRequest:
    """One tenant request as it moves through the cluster.

    ``request`` is the underlying workload request; the wrapper adds
    the gateway-level lifecycle (admission, routing, failover) and the
    end-to-end timestamps the SLO accounting uses.
    """

    rid: int
    tenant: str
    request: Request
    submit_time: float
    payload: bytes = b""
    #: "queued" | "dispatched" | "running" | "swapped" | "done" | "shed"
    state: str = "queued"
    dispatch_time: float = math.nan
    finish_time: float = math.nan
    #: Handshake/dispatch attempts (1 = no failover).
    attempts: int = 0
    #: Replica ids this request touched, in order.
    replica_history: List[int] = field(default_factory=list)
    prefix_hit: bool = False
    #: Causal-trace linkage (transient; set only when a collector is
    #: active): the request's trace context plus the currently open
    #: queue/attempt spans the gateway manages across failovers.
    trace: Optional[Any] = None
    trace_queue: Optional[Any] = None
    trace_attempt: Optional[Any] = None

    @property
    def latency(self) -> float:
        """End-to-end gateway latency (nan until done)."""
        return self.finish_time - self.submit_time


@dataclass(eq=False)
class _Served:
    """A request resident on one replica, with its scheduling state.

    Compared by identity: one instance per residency.
    """

    creq: ClusterRequest
    group: SequenceGroup
    #: Prompt tokens that must actually be prefilled (0 = prefix hit).
    prefill_tokens: int = 0


class Replica:
    """One CVM+GPU machine incarnation behind the gateway."""

    def __init__(
        self,
        sim: Simulator,
        replica_id: int,
        spec: ModelSpec,
        system: str = "pipellm",
        block_size: int = 16,
        reserve_bytes: int = 4 << 30,
        params: Optional[HardwareParams] = None,
        faults=None,
    ) -> None:
        self.sim = sim
        self.replica_id = replica_id
        self.spec = spec
        self.system = system
        self.block_size = block_size
        self.reserve_bytes = reserve_bytes
        self.params = params or default_params()
        #: Optional :class:`repro.faults.FaultInjector`, shared across
        #: incarnations (each boot rebinds it to the fresh machine, so
        #: the fault streams continue deterministically over crashes).
        self.faults = faults
        self.cost = TransformerCostModel(spec)
        self.geometry = KvGeometry(spec, block_size=block_size)

        #: Set by the gateway when the replica joins the fleet.
        self.gateway = None

        self.epoch = 0
        self.alive = False
        self.crashes = 0
        self.completed = 0
        self.prefix_hits = 0
        self.swap_out_count = 0
        self.swap_in_count = 0
        #: Stats carried across incarnations (a crash would otherwise
        #: discard the dead machine's counters).
        self._busy_acc = 0.0
        self._auth_failures_acc = 0

        self.machine: Optional[Machine] = None
        self.runtime = None
        self.boot()

    # -- lifecycle -------------------------------------------------------

    def boot(self) -> None:
        """Bring up a fresh incarnation: attested machine + empty state."""
        self.epoch += 1
        suffix = f"r{self.replica_id}.e{self.epoch}".encode()
        if self.system == "native":
            self.machine = Machine(
                CcMode.DISABLED, params=self.params, sim=self.sim, faults=self.faults
            )
            self.runtime = CudaContext(self.machine)
        else:
            # Full CC bring-up per incarnation: the handshake-derived
            # session key and starting IVs differ every epoch, so a
            # recovered replica can never collide with its past self.
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
        if total_blocks <= 0:
            raise ValueError("model leaves no GPU room for KV cache")
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
        #: LIFO stack of preempted groups.
        self.swapped: List[_Served] = []
        #: tenant -> longest prompt prefix still warm on this replica.
        self.prefix_cache: Dict[str, int] = {}

        self.alive = True
        self._wake = self.sim.event()
        self._loop_proc = self.sim.process(self._loop(self.epoch))

    def crash(self) -> List[ClusterRequest]:
        """Kill this incarnation; returns every orphaned request."""
        if not self.alive:
            return []
        self.alive = False
        self.crashes += 1
        self._busy_acc += self.machine.gpu.compute_seconds
        self._auth_failures_acc += self.machine.gpu.auth_failures
        if self._loop_proc.is_alive:
            self._loop_proc.interrupt("crash")
        orphans = [s.creq for s in self.running + self.swapped] + list(self._queue)
        self._queue = []
        self.running = []
        self.swapped = []
        self.prefix_cache = {}
        return orphans

    def recover(self) -> None:
        """Re-attest and rejoin the fleet as a fresh incarnation."""
        if self.alive:
            return
        self.boot()

    # -- gateway-facing surface ------------------------------------------

    @property
    def outstanding(self) -> int:
        """Requests resident on this replica (the routing load signal)."""
        return len(self._queue) + len(self.running) + len(self.swapped)

    @property
    def busy_seconds(self) -> float:
        """GPU-busy seconds over every incarnation so far."""
        current = self.machine.gpu.compute_seconds if self.alive else 0.0
        return self._busy_acc + current

    @property
    def auth_failures(self) -> int:
        """GCM tag-validation failures over every incarnation so far."""
        current = self.machine.gpu.auth_failures if self.alive else 0
        return self._auth_failures_acc + current

    def submit(self, creq: ClusterRequest) -> None:
        """Accept one routed request into the local admission queue."""
        if not self.alive:
            raise ReplicaDead(f"replica-{self.replica_id} is down")
        creq.state = "dispatched"
        creq.replica_history.append(self.replica_id)
        self._queue.append(creq)
        self._kick()

    def _kick(self) -> None:
        if not self._wake.triggered:
            self._wake.succeed()

    # -- serving loop ----------------------------------------------------

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

            # Preempt (swap out) until this step's block growth fits,
            # then grant the growth.
            yield from self._make_room()

            # Prompt tokens for fresh prefills cross the bus; prefix
            # hits still cost one small control transfer.
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

            # Sampled tokens return as a small transfer (not waited on).
            seqs = sum(s.group.request.parallel_n for s in self.running)
            self.runtime.memcpy_d2h(MemoryChunk(
                self._token_out.addr, max(4 * seqs, _PAYLOAD_BYTES),
                b"\x02" * _PAYLOAD_BYTES, f"r{self.replica_id}.tokens.out",
            ))
            self._advance()

    # -- scheduling phases -----------------------------------------------

    def _resume_swapped(self) -> List[Tuple[_Served, object]]:
        resumed = []
        watermark = int(self.blocks.total_blocks * _RESUME_WATERMARK)
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
            served.group.state = GroupState.RUNNING
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
            group.state = GroupState.RUNNING
            group.first_schedule_time = self.sim.now
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
        """Bounce work that can never fit this replica's KV budget.

        Runs only when nothing is running (all blocks reclaimable), so
        an admission/resume failure here means the group exceeds the
        *total* budget — waiting cannot help. The gateway re-routes or
        sheds it.
        """
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
        group.state = GroupState.SWAPPED
        served.creq.state = "swapped"
        self.swapped.append(served)
        self.swap_out_count += 1

    # -- compute & progress ----------------------------------------------

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
                group.state = GroupState.FINISHED
                group.finish_time = now
                self.blocks.free_owner(group.owner)
                self._remember_prefix(served.creq)
                self.completed += 1
                self.gateway.on_complete(served.creq, self)
            else:
                still.append(served)
        self.running = still

    def _remember_prefix(self, creq: ClusterRequest) -> None:
        prompt = creq.request.prompt_len
        self.prefix_cache[creq.tenant] = max(
            self.prefix_cache.get(creq.tenant, 0), prompt
        )
        while len(self.prefix_cache) > _PREFIX_CACHE_TENANTS:
            self.prefix_cache.pop(next(iter(self.prefix_cache)))

    def __repr__(self) -> str:
        state = "up" if self.alive else "down"
        return (
            f"Replica({self.replica_id}, {state}, epoch={self.epoch}, "
            f"outstanding={self.outstanding})"
        )
