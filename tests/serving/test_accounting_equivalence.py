"""Differential harness: O(1) KV-block accounting ≡ the re-summing original.

``ResumBlockManager`` below is the original :class:`BlockManager`,
kept verbatim: ``used_blocks`` re-sums the allocation dict on every
call. The production manager keeps a running ``_used`` total instead.
Both are fed identical random ``allocate``/``free_owner`` sequences
and must agree on every count, on ``peak_used`` and on which calls
raise.

``reference_growth`` is the original ``step_block_growth`` formula,
``blocks_after_step − blocks_held``; the production method is its
closed form (``parallel_n`` when the held tokens fill whole blocks,
else 0).
"""

from typing import Dict

import pytest
from hypothesis import given, settings, strategies as st

from repro.models import OPT_13B, KvGeometry
from repro.serving.vllm import BlockAllocationError, BlockManager
from repro.serving.vllm.scheduler import SequenceGroup
from repro.workloads import Request


class ResumBlockManager:
    """The original re-summing allocator (differential reference)."""

    def __init__(self, total_blocks: int) -> None:
        if total_blocks < 0:
            raise ValueError("total_blocks must be non-negative")
        self.total_blocks = total_blocks
        self._allocations: Dict[str, int] = {}
        self.peak_used = 0

    @property
    def used_blocks(self) -> int:
        return sum(self._allocations.values())

    @property
    def free_blocks(self) -> int:
        return self.total_blocks - self.used_blocks

    def owned_by(self, owner: str) -> int:
        return self._allocations.get(owner, 0)

    def can_allocate(self, n_blocks: int) -> bool:
        return n_blocks <= self.free_blocks

    def allocate(self, owner: str, n_blocks: int) -> None:
        if n_blocks < 0:
            raise ValueError("n_blocks must be non-negative")
        if not self.can_allocate(n_blocks):
            raise BlockAllocationError(
                f"{owner}: need {n_blocks}, free {self.free_blocks}"
            )
        self._allocations[owner] = self._allocations.get(owner, 0) + n_blocks
        self.peak_used = max(self.peak_used, self.used_blocks)

    def free_owner(self, owner: str) -> int:
        return self._allocations.pop(owner, 0)


def _outcome(call):
    try:
        return ("ok", call())
    except (ValueError, BlockAllocationError) as exc:
        return (type(exc), str(exc))


_OPS = st.lists(
    st.tuples(
        st.sampled_from(["alloc", "free", "probe"]),
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=-1, max_value=40),
    ),
    max_size=80,
)


@given(total=st.integers(min_value=0, max_value=64), ops=_OPS)
@settings(max_examples=300, deadline=None)
def test_running_total_matches_resumming_manager(total, ops):
    fast, ref = BlockManager(total), ResumBlockManager(total)
    for op, owner_id, count in ops:
        owner = f"req{owner_id}"
        if op == "alloc":
            got = _outcome(lambda: fast.allocate(owner, count))
            want = _outcome(lambda: ref.allocate(owner, count))
        elif op == "free":
            got = _outcome(lambda: fast.free_owner(owner))
            want = _outcome(lambda: ref.free_owner(owner))
        else:
            got = _outcome(lambda: fast.can_allocate(count))
            want = _outcome(lambda: ref.can_allocate(count))
        assert got == want
        assert fast.used_blocks == sum(fast._allocations.values())
        assert fast.used_blocks == ref.used_blocks
        assert fast.free_blocks == ref.free_blocks
        assert fast.peak_used == ref.peak_used
        assert fast.owned_by(owner) == ref.owned_by(owner)


def test_zero_grant_at_a_full_pool_is_a_no_op():
    manager = BlockManager(4)
    manager.allocate("a", 4)
    manager.allocate("a", 0)
    assert (manager.used_blocks, manager.peak_used) == (4, 4)
    with pytest.raises(BlockAllocationError):
        manager.allocate("b", 1)


def reference_growth(group: SequenceGroup, geometry: KvGeometry) -> int:
    """The original ``blocks_after_step − blocks_held``, verbatim."""
    prompt = geometry.blocks_for_tokens(group.request.prompt_len)
    per_seq = geometry.blocks_for_tokens(group.generated + 1)
    after = prompt + group.request.parallel_n * per_seq
    return after - group.blocks_held(geometry)


@given(
    prompt_len=st.integers(min_value=1, max_value=300),
    generated=st.one_of(st.just(0), st.integers(min_value=0, max_value=400)),
    parallel_n=st.integers(min_value=1, max_value=8),
    block_size=st.integers(min_value=1, max_value=40),
)
@settings(max_examples=500, deadline=None)
def test_growth_closed_form_matches_reference(
    prompt_len, generated, parallel_n, block_size
):
    geometry = KvGeometry(OPT_13B, block_size=block_size)
    group = SequenceGroup(
        request=Request(0, 0.0, prompt_len, generated + 1, parallel_n=parallel_n),
        generated=generated,
    )
    assert group.step_block_growth(geometry) == reference_growth(group, geometry)
