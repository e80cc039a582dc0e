"""Sequence groups and the continuous-batching scheduler state.

A :class:`SequenceGroup` is one request with ``parallel_n`` output
sequences sharing the prompt KV (vLLM's parallel sampling — the
decoding policy the paper configures with n = 2/4/6). The scheduler
implements vLLM's preemption-by-swapping: under block pressure the
most recently arrived running group is swapped out in full
(request-wise swapping), and swapped groups are resumed most-recent
first — the LIFO pattern of Figure 5b.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional

from ...hw.memory import Region
from ...models import KvGeometry
from ...workloads import Request

__all__ = ["GroupState", "SequenceGroup", "SchedulerState"]


class GroupState(enum.Enum):
    WAITING = "waiting"
    RUNNING = "running"
    SWAPPED = "swapped"
    FINISHED = "finished"


@dataclass
class SequenceGroup:
    """One request's scheduling state."""

    request: Request
    state: GroupState = GroupState.WAITING
    #: Tokens generated so far by each of the parallel sequences
    #: (they advance in lock-step — one step = one token each).
    generated: int = 0
    #: Host region holding the group's KV while swapped out.
    swap_region: Optional[Region] = None
    swap_epoch: int = 0
    finish_time: Optional[float] = None
    first_schedule_time: Optional[float] = None

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


@dataclass
class SchedulerState:
    """The three queues of the continuous-batching scheduler."""

    waiting: List[SequenceGroup] = field(default_factory=list)
    running: List[SequenceGroup] = field(default_factory=list)
    #: Stack of preempted groups; resumed LIFO (top first).
    swapped: List[SequenceGroup] = field(default_factory=list)
    finished: List[SequenceGroup] = field(default_factory=list)

    @property
    def running_seqs(self) -> int:
        return sum(g.request.parallel_n for g in self.running)

    def pick_victim(self) -> Optional[SequenceGroup]:
        """vLLM preempts the lowest-priority running group — under
        FCFS priority, the most recently arrived."""
        candidates = [g for g in self.running if g.generated > 0]
        if not candidates:
            candidates = self.running
        if not candidates:
            return None
        return max(candidates, key=lambda g: (g.request.arrival_time, g.request.request_id))
