"""Pre-gated-MoE-style baseline (Hwang et al., ISCA 2024).

Pre-gated MoE prefetches the *next* block's experts while the current
block computes, using a predictive gate one layer ahead.  The prefetch
overlaps transfer with compute, but with large-scale experts (paper
Table I: one upload costs ~32x a full GPU block) a one-block compute
window cannot hide a 40 ms transfer, so the H2D stream remains the
bottleneck -- the paper's motivation for executing missing experts on the
CPU instead of moving them.

The original system relies on a fine-tuned predictive gate; following the
paper's §V-A we pair the same layer-ahead predictor DAOP uses with
on-demand fallback for mispredictions, and execute everything on the GPU
with exact routing (no accuracy impact).
"""

from __future__ import annotations

import numpy as np

from repro.core.engine import BaseEngine, SequenceState
from repro.core.predictor import NextLayerPredictor
from repro.hardware.platform import Platform
from repro.hardware.timeline import GPU, Op
from repro.memory.cache import CacheConfig
from repro.memory.policies import LRU
from repro.model.zoo import ModelBundle
from repro.trace.recorder import DECODE as DECODE_PHASE


class PreGatedMoEEngine(BaseEngine):
    """Prefetch predicted next-block experts; upload misses on demand.

    Prefill uploads every activated expert on demand (the shared
    residency path); decode prefetches the layer-ahead gate's
    predictions into the sequence's pending uploads.
    """

    name = "pregated-moe"
    eviction_policy = LRU

    def __init__(
        self,
        bundle: ModelBundle,
        platform: Platform,
        cache_config: CacheConfig | None = None,
        calibration_probs: np.ndarray | None = None,
        prediction_start_block: int = 0,
    ) -> None:
        super().__init__(
            bundle, platform,
            cache_config=cache_config or CacheConfig(ecr=0.5),
            calibration_probs=calibration_probs,
        )
        self.predictor = NextLayerPredictor(
            self.model, start_block=prediction_start_block
        )

    # ---- decode: predictive prefetch one block ahead --------------------------

    def _decode_blocks(self, ctx: SequenceState, token: int,
                       deps: list[Op]):
        """Decode policy generator: prefetch ahead, then yield routed work."""
        h = self.model.embed(np.asarray([token]))
        last_ops = list(deps)
        pending = ctx.residency.pending
        placement = ctx.residency.placement
        for block_idx in range(self.model.n_blocks):
            predicts = self.predictor.can_predict_from(block_idx)
            h_att, logits, rows, attn_op = yield from self._attention(
                ctx, block_idx, h, last_ops,
                (block_idx, block_idx + 1) if predicts else (block_idx,),
            )
            # Issue the next block's prefetch as soon as this block's
            # non-MoE output exists (overlaps with this block's MoE).
            if predicts:
                prediction = self.predictor.from_logits(block_idx,
                                                        logits[1][0])
                pred_gate = self._gate(
                    ctx, block_idx + 1, logits[1], rows[1], [attn_op],
                    label=f"pred-gate B{block_idx + 1}",
                )
                prefetch = self._ensure_resident(
                    ctx, block_idx + 1, prediction.experts.tolist(),
                    [pred_gate],
                )
                for expert, (op,) in prefetch.extra_deps.items():
                    pending[(block_idx + 1, expert)] = op

            gate_op = self._gate(ctx, block_idx, logits[0], rows[0],
                                 [attn_op])
            routing = self.model.blocks[block_idx].route_from_logits(
                logits[0]
            )
            ctx.trace.record(
                DECODE_PHASE, block_idx, ctx.position, routing.experts[0]
            )
            self._record_activation_counters(
                ctx, block_idx, routing.experts[0]
            )
            # Neither a prefetched nor a resident expert refreshes the
            # eviction cache here; only prefetches and misses do.
            extra: dict[int, list[Op]] = {}
            for expert in routing.experts[0].tolist():
                prefetched = pending.pop((block_idx, expert), None)
                if prefetched is not None:
                    extra[expert] = [prefetched]
                elif not placement.is_on_gpu(block_idx, expert):
                    # Misprediction: on-demand upload on the critical path.
                    extra.update(self._ensure_resident(
                        ctx, block_idx, (expert,), [gate_op]
                    ).extra_deps)
            h, expert_ops = yield from self._routed_block_work(
                ctx, block_idx, h_att, routing.experts, routing.weights,
                [gate_op], extra,
                force_gpu={int(e) for e in routing.experts[0]},
            )
            last_ops = expert_ops
        ctx.position += 1
        done = ctx.timeline.add(
            GPU, 0.0, deps=last_ops, label="decode done", kind="sync"
        )
        return h[-1], done
