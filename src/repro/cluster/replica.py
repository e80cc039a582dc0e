"""One serving replica: a CVM+GPU machine plus its serving loop.

A :class:`Replica` owns one :class:`repro.cc.Machine` (embedded in the
cluster's shared simulator), the `DeviceRuntime` that machine serves
traffic through (PipeLLM, inline CC, or native), and a serving loop
that drives the shared continuous-batching scheduler
(:class:`repro.serving.vllm.BatchState`) over *dynamically routed*
requests from the gateway — unlike the single-machine engines, the
request set is not known up front.

The loop reproduces the serving behaviour the cluster experiments
depend on; the replica itself adds only the machine I/O, the prefix
cache and the gateway callbacks:

* **continuous batching** — admitted requests decode in lock-step,
  one token per step, with prompt tokens and sampled tokens crossing
  the (encrypted) bus as control transfers every step;
* **KV-pressure swapping** — block growth beyond the replica's budget
  preempts the most recent group (request-wise swap-out over the CC
  channel, LIFO resume), exactly the traffic PipeLLM pipelines; a
  request whose peak KV need exceeds the whole budget is bounced to
  the gateway at admission and shed (``kv-budget``);
* **prefix KV reuse** — a tenant whose prompt prefix is still cached
  on this replica skips prefill compute and bytes, which is the win
  the gateway's affinity policy exists to harvest;
* **crash / recover** — a crash orphans every resident request back
  to the gateway for failover (including a victim whose swap-out copy
  was still in flight) and tears the incarnation down; recovery
  re-runs the attested bring-up with fresh seeds (fresh session keys
  and IVs) and rejoins with an empty cache.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..cc import CcMode, CudaContext, Machine, build_attested_machine
from ..core import PipeLLMRuntime
from ..hw import HardwareParams, default_params
from ..hw.memory import MemoryChunk
from ..models import KvGeometry, ModelSpec, TransformerCostModel
from ..serving.vllm.scheduler import BatchState, SequenceGroup
from ..sim import Simulator
from ..tracing import active_collector
from ..workloads import Request

__all__ = ["ClusterRequest", "Replica", "ReplicaDead"]

#: Functional payload bytes for control and KV transfers.
_PAYLOAD_BYTES = 16

#: Tenants whose prompt prefixes one replica keeps warm.
_PREFIX_CACHE_TENANTS = 16


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
        self.batch = BatchState(
            self.geometry, total_blocks,
            on_admit=self._on_admit, on_token=self._on_token,
            on_finish=self._on_finish, on_reject=self._on_reject,
        )
        self.machine.gpu.alloc("weights", self.spec.total_bytes)
        self.machine.gpu.alloc("kv-pool", total_blocks * self.geometry.block_bytes)
        self.runtime.hint_kv_block_size(self.geometry.block_bytes)

        self._token_in = self.machine.host_memory.allocate(
            4096, f"r{self.replica_id}.tokens.in", b"\x01" * 8
        )
        self._token_out = self.machine.host_memory.allocate(
            4096, f"r{self.replica_id}.tokens.out", b"\x02" * 8
        )

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
        self.prefix_cache = {}
        return [group.record for group in self.batch.evict()]

    def recover(self) -> None:
        """Re-attest and rejoin the fleet as a fresh incarnation."""
        if self.alive:
            return
        self.boot()

    # -- gateway-facing surface ------------------------------------------

    @property
    def outstanding(self) -> int:
        """Requests resident on this replica (the routing load signal)."""
        return self.batch.outstanding

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
        self.batch.waiting.append(SequenceGroup(request=creq.request, record=creq))
        self._kick()

    def _kick(self) -> None:
        if not self._wake.triggered:
            self._wake.succeed()

    # -- serving loop ----------------------------------------------------

    def _loop(self, epoch: int):
        sim = self.sim
        batch = self.batch
        while self.alive and self.epoch == epoch:
            resumed = [(group, self._swap_in(group)) for group in batch.resume()]
            admitted = batch.admit()
            if not batch.running:
                self._wake = sim.event()
                yield self._wake
                continue

            # Preempt (swap out) until this step's block growth fits,
            # then grant the growth.
            yield from batch.make_room(self._swap_out)

            # Prompt tokens for fresh prefills cross the bus; prefix
            # hits still cost one small control transfer.
            for group in admitted:
                size = max(4 * group.prefill_tokens, _PAYLOAD_BYTES)
                with self.machine.telemetry.bound_trace(group.record.trace_attempt):
                    self.runtime.memcpy_h2d(MemoryChunk(
                        self._token_in.addr, size, b"\x01" * _PAYLOAD_BYTES,
                        f"r{self.replica_id}.tokens.in",
                    ))
            yield self.runtime.synchronize()
            for group, region in resumed:
                self.machine.host_memory.free(region)
                if group.swap_region is region:
                    group.swap_region = None

            step_start = sim.now
            work = batch.step_work(admitted, self.cost)
            yield self.machine.gpu.compute(work.flops, work.bytes_touched, layers=work.layers)
            sim.tracer.record(f"cluster.replica-{self.replica_id}", "step", step_start, sim.now)
            collector = active_collector()
            if collector is not None and sim.now > step_start:
                label = f"replica-{self.replica_id}.e{self.epoch}"
                for group in batch.running:
                    if group.record.trace_attempt is not None:
                        collector.add(
                            group.record.trace_attempt, "step", "compute",
                            label, step_start, sim.now,
                        )

            # Sampled tokens return as a small transfer (not waited on).
            self.runtime.memcpy_d2h(MemoryChunk(
                self._token_out.addr, max(4 * batch.running_seqs, _PAYLOAD_BYTES),
                b"\x02" * _PAYLOAD_BYTES, f"r{self.replica_id}.tokens.out",
            ))
            batch.advance(sim.now)

    # -- machine I/O -----------------------------------------------------

    def _swap_in(self, group: SequenceGroup):
        """Start a resumed group's H2D; returns the region it consumes."""
        region = group.swap_region
        if region is None:
            raise RuntimeError(f"{group.owner} swapped without a region")
        with self.machine.telemetry.bound_trace(group.record.trace_attempt):
            self.runtime.memcpy_h2d(self.machine.host_memory.chunk_at(region.addr))
        self.swap_in_count += 1
        group.record.state = "running"
        return region

    def _swap_out(self, group: SequenceGroup):
        nbytes = group.kv_bytes(self.geometry)
        tag = f"r{self.replica_id}.kv.{group.owner}.e{group.swap_epoch}"
        payload = b"\x03" * _PAYLOAD_BYTES
        region = self.machine.host_memory.allocate(nbytes, tag=tag)
        group.swap_region = region
        self.machine.gpu._contents[tag] = payload
        with self.machine.telemetry.bound_trace(group.record.trace_attempt):
            handle = self.runtime.memcpy_d2h(MemoryChunk(region.addr, nbytes, payload, tag))
        yield handle.api_done
        group.record.state = "swapped"
        self.swap_out_count += 1

    # -- batch callbacks -------------------------------------------------

    def _on_admit(self, group: SequenceGroup) -> None:
        creq = group.record
        creq.prefix_hit = self.prefix_cache.get(creq.tenant, 0) >= creq.request.prompt_len
        if creq.prefix_hit:
            group.prefill_tokens = 0
            self.prefix_hits += 1
        creq.state = "running"

    def _on_token(self, group: SequenceGroup) -> None:
        self.gateway.on_token(group.record, self, group.generated)

    def _on_finish(self, group: SequenceGroup) -> None:
        self._remember_prefix(group.record)
        self.completed += 1
        self.gateway.on_complete(group.record, self)

    def _on_reject(self, group: SequenceGroup) -> None:
        # Its peak KV need exceeds this replica's whole budget: the
        # gateway sheds it.
        self.gateway.on_reject(group.record, self, "kv-budget")

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
