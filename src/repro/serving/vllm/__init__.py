"""vLLM-like serving substrate: paged KV cache + request-wise swapping.

:class:`BatchState` is the one continuous-batching scheduler; the
:class:`VllmEngine` here, the cluster's replicas and the disaggregated
decode workers are thin drivers over it.
"""

from .block_manager import BlockAllocationError, BlockManager
from .engine import VllmConfig, VllmEngine, VllmResult
from .scheduler import MAX_NUM_SEQS, RESUME_WATERMARK, BatchState, SequenceGroup

__all__ = [
    "BatchState",
    "BlockAllocationError",
    "BlockManager",
    "MAX_NUM_SEQS",
    "RESUME_WATERMARK",
    "SequenceGroup",
    "VllmConfig",
    "VllmEngine",
    "VllmResult",
]
