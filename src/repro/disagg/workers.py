"""Disaggregated serving workers: prefill pools and decode pools.

Disaggregation splits the two phases of LLM inference onto dedicated
machines. :class:`PrefillWorker` runs prompt prefills back to back —
one compute-dense burst per request, no batch to disturb — then hands
the finished KV cache to the migration fabric. :class:`DecodeWorker`
drives the shared continuous-batching scheduler
(:class:`repro.serving.vllm.BatchState`) over requests whose KV has
already *arrived*; it never computes a prefill (except in the
monolithic-baseline topology, where it must, inline, serialized with
its own decode steps — exactly the head-of-line blocking disaggregation
exists to remove).

Both worker kinds are full attested incarnations on the shared
simulator, with the same crash/recover epoch discipline as
:class:`repro.cluster.replica.Replica`: a crash interrupts the serving
loop, orphans resident work back to the scheduler, and discards every
incarnation-local secret (retained KV copies included); recovery
re-runs the attested bring-up with fresh seeds, so post-crash traffic
rides freshly keyed channels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, List, Optional

from ..cc import CcMode, Machine, build_attested_machine
from ..hw import HardwareParams, default_params
from ..models import KvGeometry, ModelSpec, TransformerCostModel
from ..serving.vllm.scheduler import BatchState, SequenceGroup
from ..sim import Simulator
from ..tracing import active_collector
from ..workloads import Request

__all__ = ["DisaggRequest", "WorkerDead", "PrefillWorker", "DecodeWorker"]


class WorkerDead(RuntimeError):
    """A request was submitted to a crashed worker."""


@dataclass
class DisaggRequest:
    """One request as it moves through the disaggregated pipeline."""

    rid: int
    tenant: str
    request: Request
    submit_time: float
    #: KV bytes produced by prefill (what migration must move).
    kv_bytes: int = 0
    #: "queued" | "prefilling" | "migrating" | "holding" | "decoding"
    #: | "done" | "shed"
    state: str = "queued"
    prefill_done_time: float = math.nan
    #: When the KV cache became resident on the decode worker.
    kv_ready_time: float = math.nan
    first_token_time: float = math.nan
    finish_time: float = math.nan
    #: Prefill executions (1 = no replay).
    attempts: int = 0
    #: Migrations resumed from a retained prefill copy (no recompute).
    resumes: int = 0
    #: Worker labels this request touched, in order.
    history: List[str] = field(default_factory=list)
    #: Causal-trace linkage (set only when a collector is active).
    trace: Optional[Any] = None
    trace_queue: Optional[Any] = None

    @property
    def ttft(self) -> float:
        """Submit-to-first-token latency (nan until the first token)."""
        return self.first_token_time - self.submit_time

    @property
    def latency(self) -> float:
        """End-to-end latency (nan until done)."""
        return self.finish_time - self.submit_time


class _Worker:
    """Shared incarnation machinery of both worker kinds."""

    kind = "worker"

    def __init__(
        self,
        sim: Simulator,
        worker_id: int,
        spec: ModelSpec,
        system: str = "pipellm",
        block_size: int = 16,
        reserve_bytes: int = 4 << 30,
        params: Optional[HardwareParams] = None,
        faults=None,
    ) -> None:
        self.sim = sim
        self.worker_id = worker_id
        self.spec = spec
        self.system = system
        self.block_size = block_size
        self.reserve_bytes = reserve_bytes
        self.params = params or default_params()
        self.faults = faults
        self.cost = TransformerCostModel(spec)
        self.geometry = KvGeometry(spec, block_size=block_size)

        #: Set by the scheduler when the worker joins its pool.
        self.scheduler = None

        self.epoch = 0
        self.alive = False
        self.crashes = 0
        self.completed = 0
        self._busy_acc = 0.0

        self.machine: Optional[Machine] = None
        self.boot()

    @property
    def label(self) -> str:
        """Stable pool-wide name ("p0", "d1", ...)."""
        return f"{self.kind[0]}{self.worker_id}"

    @property
    def replica_id(self) -> int:
        """Alias so the cluster routing policies rank workers as-is."""
        return self.worker_id

    @property
    def incarnation(self) -> str:
        return f"{self.kind}-{self.worker_id}.e{self.epoch}"

    # -- lifecycle -------------------------------------------------------

    def boot(self) -> None:
        """Bring up a fresh incarnation: attested machine, empty state."""
        self.epoch += 1
        suffix = f"{self.label}.e{self.epoch}".encode()
        if self.system == "native":
            self.machine = Machine(
                CcMode.DISABLED, params=self.params, sim=self.sim,
                faults=self.faults,
            )
        else:
            # Fresh attested bring-up per incarnation: epoch-derived
            # seeds give each incarnation its own CVM↔GPU session key
            # and IV streams, and the migration fabric keys its links
            # by (label, epoch), so nothing post-crash can collide
            # with anything pre-crash.
            self.machine = build_attested_machine(
                params=self.params,
                sim=self.sim,
                device_id=f"gpu-{self.label}",
                host_seed=b"cvm:" + suffix,
                device_seed=b"dev:" + suffix,
                faults=self.faults,
            )
        self.machine.telemetry.label = self.incarnation
        self._boot_state()
        self.alive = True
        self._wake = self.sim.event()
        self._loop_proc = self.sim.process(self._loop(self.epoch))

    def crash(self) -> List[DisaggRequest]:
        """Kill this incarnation; returns every orphaned request."""
        if not self.alive:
            return []
        self.alive = False
        self.crashes += 1
        self._busy_acc += self.machine.gpu.compute_seconds
        if self._loop_proc.is_alive:
            self._loop_proc.interrupt("crash")
        return self._orphans()

    def recover(self) -> None:
        """Re-attest and rejoin the pool as a fresh incarnation."""
        if not self.alive:
            self.boot()

    @property
    def busy_seconds(self) -> float:
        """GPU-busy seconds over every incarnation so far."""
        current = self.machine.gpu.compute_seconds if self.alive else 0.0
        return self._busy_acc + current

    def _kick(self) -> None:
        if not self._wake.triggered:
            self._wake.succeed()

    # -- subclass surface -------------------------------------------------

    def _boot_state(self) -> None:
        raise NotImplementedError

    def _orphans(self) -> List[DisaggRequest]:
        raise NotImplementedError

    def _loop(self, epoch: int):
        raise NotImplementedError

    def __repr__(self) -> str:
        state = "up" if self.alive else "down"
        return (
            f"{type(self).__name__}({self.worker_id}, {state}, "
            f"epoch={self.epoch}, outstanding={self.outstanding})"
        )


class PrefillWorker(_Worker):
    """One dedicated prompt-prefill machine.

    Prefills run one request at a time, back to back — the compute
    burst is dense enough that batching prompts buys nothing and only
    delays the head of the queue. The finished KV cache is *retained*
    (a host-side copy inside the CVM) until the scheduler releases it
    on decode completion, which is what makes migration *resume* —
    re-shipping the copy after a decode-side crash, with no prefill
    recompute — possible at all.
    """

    kind = "prefill"

    def _boot_state(self) -> None:
        self._queue: List[DisaggRequest] = []
        self._active: Optional[DisaggRequest] = None
        #: rid -> retained KV bytes (incarnation-local: a crash loses
        #: the copies, forcing replay).
        self._retained: dict = {}

    def _orphans(self) -> List[DisaggRequest]:
        orphans = list(self._queue)
        if self._active is not None:
            orphans.insert(0, self._active)
        self._queue = []
        self._active = None
        self._retained = {}
        return orphans

    # -- scheduler-facing surface ----------------------------------------

    @property
    def outstanding(self) -> int:
        """Prefills resident here (the placement load signal)."""
        return len(self._queue) + (1 if self._active is not None else 0)

    def submit(self, creq: DisaggRequest) -> None:
        if not self.alive:
            raise WorkerDead(f"{self.label} is down")
        creq.state = "prefilling"
        creq.history.append(self.label)
        self._queue.append(creq)
        self._kick()

    def has_kv(self, rid: int) -> bool:
        """Is this request's KV copy still retained here?"""
        return self.alive and rid in self._retained

    def release(self, rid: int) -> None:
        """Drop the retained copy (decode finished or replayed away)."""
        self._retained.pop(rid, None)

    # -- serving loop ----------------------------------------------------

    def _loop(self, epoch: int):
        sim = self.sim
        while self.alive and self.epoch == epoch:
            if not self._queue:
                self._wake = sim.event()
                yield self._wake
                continue
            creq = self._queue.pop(0)
            self._active = creq
            start = sim.now
            work = self.cost.prefill(
                creq.request.prompt_len * creq.request.parallel_n
            )
            yield self.machine.gpu.compute(
                work.flops, work.bytes_touched, layers=self.spec.n_layers
            )
            sim.tracer.record(f"disagg.{self.label}", "prefill", start, sim.now)
            collector = active_collector()
            if collector is not None and creq.trace is not None:
                collector.add(
                    creq.trace, "prefill", "compute", self.incarnation,
                    start, sim.now,
                )
            self._retained[creq.rid] = creq.kv_bytes
            creq.prefill_done_time = sim.now
            self._active = None
            self.completed += 1
            # Prefill samples the first token itself — TTFT is prefill
            # completion; migration gates the *second* token onward.
            self.scheduler.on_token(creq, self, 1)
            self.scheduler.on_prefill_done(creq, self)


class DecodeWorker(_Worker):
    """One continuous-batching decode machine.

    Requests enter through :meth:`submit_ready` (their KV migrated in —
    the disaggregated path) or :meth:`submit_local` (monolithic
    baseline: the prompt must be prefilled *here*, inside the decode
    loop, stretching the step every other resident request is waiting
    on). The batch is the shared scheduler
    (:class:`repro.serving.vllm.BatchState`) with ``reserve_horizon``:
    admission grants KV blocks for the full prompt+output horizon of
    every sequence, so nothing is ever preempted; when the budget is
    exhausted, arrivals hold in the local queue until completions free
    room — the decode-side half of hold-until-KV-arrival.
    """

    kind = "decode"

    def _boot_state(self) -> None:
        total_blocks = self.geometry.gpu_block_budget(
            self.params.gpu_memory_bytes, reserved_bytes=self.reserve_bytes
        )
        self.batch = BatchState(
            self.geometry, total_blocks, reserve_horizon=True,
            on_admit=self._on_admit, on_token=self._on_token,
            on_finish=self._on_finish, on_reject=self._on_reject,
        )

    def _orphans(self) -> List[DisaggRequest]:
        return [group.record for group in self.batch.evict()]

    # -- scheduler-facing surface ----------------------------------------

    @property
    def outstanding(self) -> int:
        return self.batch.outstanding

    def submit_ready(self, creq: DisaggRequest) -> None:
        """Admit a request whose KV cache has arrived (disagg path)."""
        self._enqueue(creq)

    def submit_local(self, creq: DisaggRequest) -> None:
        """Accept a request that must prefill *here* (monolithic)."""
        self._enqueue(creq)
        creq.kv_ready_time = self.sim.now  # KV is born local.

    def _enqueue(self, creq: DisaggRequest) -> None:
        if not self.alive:
            raise WorkerDead(f"{self.label} is down")
        creq.state = "holding"
        creq.history.append(self.label)
        self.batch.waiting.append(SequenceGroup(request=creq.request, record=creq))
        self._kick()

    # -- serving loop ----------------------------------------------------

    def _loop(self, epoch: int):
        sim = self.sim
        batch = self.batch
        while self.alive and self.epoch == epoch:
            admitted = batch.admit()
            if not batch.running:
                self._wake = sim.event()
                yield self._wake
                continue
            step_start = sim.now
            work = batch.step_work(admitted, self.cost)
            yield self.machine.gpu.compute(
                work.flops, work.bytes_touched, layers=work.layers
            )
            sim.tracer.record(f"disagg.{self.label}", "step", step_start, sim.now)
            collector = active_collector()
            if collector is not None and sim.now > step_start:
                for group in batch.running:
                    if group.record.trace is not None:
                        collector.add(
                            group.record.trace, "step", "compute",
                            self.incarnation, step_start, sim.now,
                        )
            batch.advance(sim.now)

    # -- batch callbacks -------------------------------------------------

    def _on_admit(self, group: SequenceGroup) -> None:
        creq = group.record
        collector = active_collector()
        if (collector is not None and creq.trace is not None
                and not math.isnan(creq.kv_ready_time)
                and self.sim.now > creq.kv_ready_time):
            collector.add(
                creq.trace, "kv-hold", "hold", self.incarnation,
                creq.kv_ready_time, self.sim.now,
            )
        creq.state = "decoding"
        if math.isnan(creq.prefill_done_time):
            # Monolithic inline prefill rides inside the batch step for
            # every sequence — each resident request's next token waits.
            group.prefill_tokens *= creq.request.parallel_n
        else:
            group.prefill_tokens = 0
            # A migrated request's first token already left the
            # prefill worker; decode owes the remaining output_len - 1.
            if not math.isnan(creq.first_token_time):
                group.generated = 1

    def _on_token(self, group: SequenceGroup) -> None:
        creq = group.record
        if math.isnan(creq.prefill_done_time):
            creq.prefill_done_time = self.sim.now  # The inline prefill.
        self.scheduler.on_token(creq, self, group.generated)

    def _on_finish(self, group: SequenceGroup) -> None:
        self.completed += 1
        self.scheduler.on_complete(group.record, self)

    def _on_reject(self, group: SequenceGroup) -> None:
        # Its KV horizon exceeds this worker's entire budget: shed it.
        self.scheduler.on_reject(group.record, self, "kv-budget")
