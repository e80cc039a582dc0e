"""Tensor-parallel decoding over the encrypted interconnect.

Megatron-style layer sharding: every GPU holds 1/N of each layer's
weights, computes its shard of the attention and MLP GEMMs, and the
shards are merged with **two ring all-reduces per layer** (one after
attention, one after the MLP). Decode is memory-bound, so sharding
cuts per-GPU HBM traffic by N — near-linear scaling with CC off.

Under CC the all-reduce hops ride the serialized bridge: per layer,
2·2·(N−1) bounce hops whose inline CPU AES contends on the host's
crypto pools. At realistic activation sizes this erases the compute
win entirely (multi-GPU *slower* than one GPU) — until the link
speculator stages the bounce crypto off the critical path, which is
the campaign's headline recovery.

Functionally each all-reduce sums one small int vector per GPU
(stand-ins for the activation shards, sized by the *logical*
activation bytes); the reduced values feed a running SHA-256 whose
digest makes same-seed runs byte-comparable end to end.
"""

from __future__ import annotations

import hashlib
from typing import Optional

from ..crypto import PayloadCorruptionError
from ..models.specs import ModelSpec
from ..models.transformer import TransformerCostModel
from .collectives import Communicator, ParallelResult

__all__ = ["TensorParallelEngine"]


class TensorParallelEngine:
    """Decode loop with per-layer sharded compute + ring all-reduces."""

    def __init__(
        self,
        machine,
        spec: ModelSpec,
        batch: int = 32,
        mean_context: int = 512,
        label: str = "",
    ) -> None:
        self.machine = machine
        self.spec = spec
        self.batch = batch
        self.mean_context = mean_context
        self.label = label or ("cc" if machine.cc_enabled else "nocc")
        self.cost = TransformerCostModel(spec)
        self.n = len(machine.gpus)
        self.comm: Optional[Communicator] = (
            Communicator(machine) if self.n > 1 else None
        )
        #: One activation tensor crossing the fabric per all-reduce.
        self.activation_bytes = int(batch * spec.hidden * spec.dtype_bytes)
        self._digest = hashlib.sha256()
        self.tokens_decoded = 0

    # -- the decode loop -------------------------------------------------

    def _decode_layers(self, step: int):
        sim = self.machine.sim
        work = self.cost.decode_layer(self.batch, self.mean_context)
        for layer in range(self.spec.n_layers):
            # Every GPU runs its 1/N shard of the layer concurrently.
            yield sim.all_of([
                gpu.compute(work.flops / self.n, work.bytes_touched / self.n)
                for gpu in self.machine.gpus
            ])
            if self.comm is None:
                self._digest.update(f"tp:{step}:{layer}:solo".encode())
                continue
            # Two merges per layer (post-attention, post-MLP), each a
            # ring all-reduce of the activation tensor.
            for phase in ("attn", "mlp"):
                shards = [
                    [step + 1, layer + 1, gpu_index + 1, len(phase)]
                    for gpu_index in range(self.n)
                ]
                reduced = yield self.comm.all_reduce(
                    shards, self.activation_bytes, collective=f"tp.{phase}"
                )
                expected = [sum(col) for col in zip(*shards)]
                if any(vec != expected for vec in reduced):
                    raise PayloadCorruptionError(
                        "ring all-reduce diverged from the arithmetic sum"
                    )
                self._digest.update(
                    f"tp:{step}:{layer}:{phase}:{reduced[0]}".encode()
                )

    def _main(self, output_tokens: int):
        for step in range(output_tokens):
            yield from self._decode_layers(step)
            self.tokens_decoded += self.batch

    def run(self, output_tokens: int = 4) -> ParallelResult:
        """Decode ``output_tokens`` steps; returns the run's result."""
        machine = self.machine
        start = machine.sim.now
        machine.sim.process(self._main(output_tokens))
        machine.run()
        fabric = machine.interconnect
        return ParallelResult(
            mode="tp",
            system=self.label,
            n_gpus=self.n,
            tokens=self.tokens_decoded,
            elapsed_s=machine.sim.now - start,
            checksum=self._digest.hexdigest(),
            hops=fabric.hops if fabric else 0,
            p2p_bytes=fabric.p2p_bytes if fabric else 0,
            bounce_bytes=fabric.bounce_bytes if fabric else 0,
            spec_hit_rate=fabric.hit_rate() if fabric else 0.0,
        )
