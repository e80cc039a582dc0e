"""Sequence groups and the one continuous-batching scheduler.

A :class:`SequenceGroup` is one request with ``parallel_n`` output
sequences sharing the prompt KV (vLLM's parallel sampling — the
decoding policy the paper configures with n = 2/4/6).

:class:`BatchState` is the scheduler every serving loop in the repo
drives: the single-machine :class:`~repro.serving.vllm.VllmEngine`,
the cluster's :class:`~repro.cluster.Replica` and the disaggregated
:class:`~repro.disagg.DecodeWorker`. It implements vLLM's
preemption-by-swapping: under block pressure the most recently arrived
running group is swapped out in full (request-wise swapping), and
swapped groups are resumed most-recent first — the LIFO pattern of
Figure 5b. The drivers keep only their machine I/O (the swap-out D2H,
the swap-in H2D, the token transfers) and their callbacks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generator, List, Optional

from ...hw.memory import Region
from ...models import KvGeometry, LayerWork, TransformerCostModel
from ...sim import Event, mean
from ...workloads import Request
from .block_manager import BlockManager

__all__ = ["BatchState", "MAX_NUM_SEQS", "RESUME_WATERMARK", "SequenceGroup"]

#: Most sequences one batch decodes at once (vLLM's ``max_num_seqs``).
MAX_NUM_SEQS = 256

#: Resume hysteresis: the fraction of all blocks that must stay free
#: beyond a swapped group's own need before it resumes beside other
#: running groups — vLLM's watermark, which prevents swap-in/swap-out
#: thrashing at the pressure boundary.
RESUME_WATERMARK = 0.02


@dataclass(eq=False)
class SequenceGroup:
    """One request's scheduling state (compared by identity)."""

    request: Request
    #: The driver's own record of the request (a ``ClusterRequest`` or
    #: ``DisaggRequest``); unused by the scheduler.
    record: Any = None
    #: Tokens generated so far by each of the parallel sequences
    #: (they advance in lock-step — one step = one token each).
    generated: int = 0
    #: Prompt tokens the next step bills as prefill (set at admission,
    #: cleared by :meth:`BatchState.step_work`; 0 = decoding).
    prefill_tokens: int = 0
    #: Host region holding the group's KV while swapped out.
    swap_region: Optional[Region] = None
    swap_epoch: int = 0
    finish_time: Optional[float] = None

    @property
    def owner(self) -> str:
        return f"req{self.request.request_id}"

    @property
    def done(self) -> bool:
        return self.generated >= self.request.output_len

    def blocks_held(self, geometry: KvGeometry) -> int:
        """GPU blocks the group occupies at its current progress."""
        prompt = geometry.blocks_for_tokens(self.request.prompt_len)
        per_seq = geometry.blocks_for_tokens(max(self.generated, 1))
        return prompt + self.request.parallel_n * per_seq

    def step_block_growth(self, geometry: KvGeometry) -> int:
        """New blocks this decode step will require.

        Token ``generated + 1`` opens a fresh block in each parallel
        sequence exactly when the held tokens fill whole blocks; the
        first token shares the block ``blocks_held`` already counts
        for ``max(generated, 1)``.
        """
        generated = self.generated
        if generated > 0 and generated % geometry.block_size == 0:
            return self.request.parallel_n
        return 0

    def kv_bytes(self, geometry: KvGeometry) -> int:
        """Bytes moved when this group is swapped (all its blocks)."""
        return self.blocks_held(geometry) * geometry.block_bytes

    def context_len(self) -> int:
        return self.request.prompt_len + self.generated

    def normalized_latency(self) -> float:
        """(finish − arrival) / output tokens — the paper's metric."""
        if self.finish_time is None:
            raise ValueError("group not finished")
        return (self.finish_time - self.request.arrival_time) / self.request.output_len


def _ignore(group: SequenceGroup) -> None:
    pass


def _refuse(group: SequenceGroup) -> None:
    raise ValueError(
        f"request {group.request.request_id} exceeds the whole KV budget "
        "and no on_reject handler takes it"
    )


class BatchState:
    """Waiting/running/swapped queues plus their KV block grants.

    One step of a driver's loop is: :meth:`resume` (issue each returned
    group's swap-in), :meth:`admit`, :meth:`make_room` (yielding on the
    victims' swap-outs), the step's compute sized by
    :meth:`step_work`, then :meth:`advance`.

    Two flags declare where the drivers really differ:

    * ``prefer_started`` — victim choice skips groups that have not
      generated a token yet while any that have are running (vLLM);
      otherwise the latest arrival is preempted regardless.
    * ``reserve_horizon`` — admission grants the blocks of the whole
      ``prompt + output`` horizon for every sequence up front, so the
      group never grows and is never preempted (disagg decode
      workers, whose drivers need no :meth:`resume`/:meth:`make_room`).
      Otherwise groups grow block by block and pressure swaps them.

    Callbacks: ``on_admit(group)`` may rewrite the billed
    ``prefill_tokens`` (default: the prompt) and ``generated``;
    ``on_token(group)`` fires per step per group after its
    ``generated`` advanced, then ``on_finish(group)`` once its blocks
    are freed; ``on_reject(group)`` takes a group whose peak KV need
    exceeds the whole budget, which no amount of waiting can serve
    (default: raise ``ValueError``, so no such group is lost silently).
    """

    def __init__(
        self,
        geometry: KvGeometry,
        total_blocks: int,
        *,
        prefer_started: bool = False,
        reserve_horizon: bool = False,
        on_admit: Callable[[SequenceGroup], None] = _ignore,
        on_token: Callable[[SequenceGroup], None] = _ignore,
        on_finish: Callable[[SequenceGroup], None] = _ignore,
        on_reject: Callable[[SequenceGroup], None] = _refuse,
    ) -> None:
        if total_blocks <= 0:
            raise ValueError("model leaves no GPU room for KV cache")
        self.geometry = geometry
        self.blocks = BlockManager(total_blocks)
        self.prefer_started = prefer_started
        self.reserve_horizon = reserve_horizon
        self.on_admit = on_admit
        self.on_token = on_token
        self.on_finish = on_finish
        self.on_reject = on_reject
        self.watermark = int(total_blocks * RESUME_WATERMARK)
        self.waiting: List[SequenceGroup] = []
        self.running: List[SequenceGroup] = []
        #: Stack of preempted groups; resumed LIFO (top first).
        self.swapped: List[SequenceGroup] = []
        #: The victim whose swap-out copy is in flight: out of
        #: ``running``, not yet on ``swapped``, still holding blocks.
        self.swapping: Optional[SequenceGroup] = None

    # -- views -----------------------------------------------------------

    @property
    def running_seqs(self) -> int:
        return sum(g.request.parallel_n for g in self.running)

    @property
    def outstanding(self) -> int:
        """Groups queued, running or swapped (the routing load signal)."""
        return len(self.waiting) + len(self.running) + len(self.swapped)

    def peak_blocks(self, group: SequenceGroup) -> int:
        """The most blocks ``group`` ever holds: its prompt plus every
        sequence's whole output (the admission grant itself under
        ``reserve_horizon``)."""
        request = group.request
        blocks_for = self.geometry.blocks_for_tokens
        if self.reserve_horizon:
            return blocks_for(request.prompt_len + request.output_len) * request.parallel_n
        return blocks_for(request.prompt_len) + request.parallel_n * blocks_for(request.output_len)

    def _grant(self, group: SequenceGroup) -> int:
        if self.reserve_horizon:
            return self.peak_blocks(group)
        return group.blocks_held(self.geometry)

    def _seats(self, group: SequenceGroup) -> bool:
        return self.running_seqs + group.request.parallel_n <= MAX_NUM_SEQS

    def evict(self) -> List[SequenceGroup]:
        """Empty every queue (a crash); returns the groups in the order
        running, swapped, in-flight victim, waiting."""
        groups = self.running + self.swapped
        if self.swapping is not None:
            groups.append(self.swapping)
        groups += self.waiting
        self.waiting, self.running, self.swapped = [], [], []
        self.swapping = None
        return groups

    # -- scheduling phases -------------------------------------------------

    def resume(self) -> List[SequenceGroup]:
        """Move swapped groups back to running, LIFO, while they fit.

        The watermark applies only beside other running groups: alone,
        a group whose blocks fit must resume, or nothing would ever
        run again. The caller issues each returned group's swap-in.
        """
        resumed: List[SequenceGroup] = []
        swapped = self.swapped
        while swapped:
            group = swapped[-1]
            need = self._grant(group)
            headroom = self.watermark if self.running else 0
            if not self.blocks.can_allocate(need + headroom) or not self._seats(group):
                break
            swapped.pop()
            self.blocks.allocate(group.owner, need)
            self.running.append(group)
            resumed.append(group)
        return resumed

    def admit(self) -> List[SequenceGroup]:
        """FCFS admission of waiting groups (prefill this step).

        Nothing is admitted while groups are swapped out — they resume
        first. A head group that could never fit is rejected.
        """
        admitted: List[SequenceGroup] = []
        waiting = self.waiting
        while waiting:
            group = waiting[0]
            if self.peak_blocks(group) > self.blocks.total_blocks:
                waiting.pop(0)
                self.on_reject(group)
                continue
            need = self._grant(group)
            if self.swapped or not self.blocks.can_allocate(need) or not self._seats(group):
                break
            waiting.pop(0)
            self.blocks.allocate(group.owner, need)
            group.prefill_tokens = group.request.prompt_len
            self.on_admit(group)
            self.running.append(group)
            admitted.append(group)
        return admitted

    def pick_victim(self) -> Optional[SequenceGroup]:
        """The lowest-priority running group — under FCFS priority, the
        most recently arrived (request id breaks ties)."""
        candidates = self.running
        if self.prefer_started:
            candidates = [g for g in candidates if g.generated > 0] or candidates
        if not candidates:
            return None
        return max(candidates, key=lambda g: (g.request.arrival_time, g.request.request_id))

    def make_room(
        self, swap_out: Callable[[SequenceGroup], Generator[Event, Any, None]]
    ) -> Generator[Event, Any, None]:
        """Preempt until this step's block growth fits, then grant it.

        ``swap_out(victim)`` is the driver's D2H of the victim's KV; its
        blocks are released only once that copy has landed.
        """
        geometry = self.geometry
        blocks = self.blocks
        while True:
            grants = [
                (g.owner, n) for g in self.running
                if (n := g.step_block_growth(geometry))
            ]
            if blocks.can_allocate(sum(n for _owner, n in grants)) or len(self.running) <= 1:
                break
            victim = self.pick_victim()
            self.running.remove(victim)
            victim.swap_epoch += 1
            self.swapping = victim
            yield from swap_out(victim)
            self.swapping = None
            blocks.free_owner(victim.owner)
            self.swapped.append(victim)
        for owner, n in grants:
            blocks.allocate(owner, n)

    # -- compute & progress ----------------------------------------------

    def step_work(
        self, admitted: List[SequenceGroup], cost: TransformerCostModel
    ) -> LayerWork:
        """This step's prefill + decode work; bills and clears the
        admitted groups' prefill (a group admitted and swapped out in
        one step is billed then and decodes after it resumes)."""
        decode = [g for g in self.running if not g.prefill_tokens]
        prefill_tokens = 0
        for group in admitted:
            prefill_tokens += group.prefill_tokens
            group.prefill_tokens = 0
        decode_seqs = sum(g.request.parallel_n for g in decode)
        flops = 0.0
        bytes_touched = 0.0
        if prefill_tokens:
            work = cost.prefill(prefill_tokens)
            flops += work.flops
            bytes_touched += work.bytes_touched
        if decode_seqs:
            ctx = mean([float(g.context_len()) for g in decode])
            work = cost.decode_step(decode_seqs, ctx)
            flops += work.flops
            bytes_touched += work.bytes_touched
        return LayerWork(flops, bytes_touched, layers=cost.spec.n_layers)

    def advance(self, now: float) -> None:
        """Every running group generates one token; finished groups
        free their blocks and leave the batch."""
        still: List[SequenceGroup] = []
        for group in self.running:
            group.generated += 1
            self.on_token(group)
            if group.done:
                group.finish_time = now
                self.blocks.free_owner(group.owner)
                self.on_finish(group)
            else:
                still.append(group)
        self.running = still
