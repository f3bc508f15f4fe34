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

from repro.core.engine import BaseEngine, BlockPlan, SequenceState
from repro.core.predictor import NextLayerPredictor
from repro.hardware.platform import Platform
from repro.hardware.timeline import Op
from repro.memory.cache import CacheConfig
from repro.memory.policies import LRU
from repro.model.zoo import ModelBundle


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

    def _look_ahead(self, ctx: SequenceState, block_idx: int,
                    h_att: np.ndarray, prediction, pred_gate: Op):
        """Prefetch block ``block_idx + 1``'s predicted experts into the
        sequence's pending uploads, overlapping this block's MoE."""
        pending = ctx.residency.pending
        prefetch = self._ensure_resident(
            ctx, block_idx + 1, prediction.experts.tolist(), [pred_gate]
        )
        for expert, (op,) in prefetch.extra_deps.items():
            pending[(block_idx + 1, expert)] = op
        return (yield from ())  # a prefetch yields no work

    def _prepare_decode_block(self, ctx: SequenceState, block_idx: int,
                              activated: np.ndarray,
                              deps: list[Op]) -> BlockPlan:
        """Wait on pending prefetches; upload mispredictions on demand.

        Every activated expert runs on the GPU.  Neither a prefetched
        nor a resident expert refreshes the eviction cache here; only
        prefetches and misses do.
        """
        pending = ctx.residency.pending
        placement = ctx.residency.placement
        experts = activated.tolist()
        extra: dict[int, list[Op]] = {}
        for expert in experts:
            prefetched = pending.pop((block_idx, expert), None)
            if prefetched is not None:
                extra[expert] = [prefetched]
            elif not placement.is_on_gpu(block_idx, expert):
                # Misprediction: on-demand upload on the critical path.
                extra.update(self._ensure_resident(
                    ctx, block_idx, (expert,), deps
                ).extra_deps)
        return BlockPlan(extra_deps=extra, force_gpu=set(experts))
