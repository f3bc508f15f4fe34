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

from dataclasses import dataclass, field

import numpy as np

from repro.core.engine import BaseEngine, BlockPlan, SequenceState
from repro.core.predictor import NextLayerPredictor
from repro.hardware.platform import Platform
from repro.hardware.timeline import GPU, Op
from repro.memory.cache import CacheConfig
from repro.memory.lru import LRUExpertCache
from repro.model.zoo import ModelBundle
from repro.trace.recorder import DECODE as DECODE_PHASE


@dataclass
class _PreGatedSequencePolicy:
    """Per-sequence prefetch state (``ctx.policy``)."""

    lru: list
    pending: dict = field(default_factory=dict)


class PreGatedMoEEngine(BaseEngine):
    """Prefetch predicted next-block experts; upload misses on demand."""

    name = "pregated-moe"

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

    def _begin_sequence(self, ctx: SequenceState) -> None:
        lru: list[LRUExpertCache] = []
        probs = self.calibration_probs
        for block_idx in range(self.model.n_blocks):
            resident = list(ctx.placement.gpu_experts(block_idx))
            cache = LRUExpertCache(capacity=max(len(resident), 0))
            if probs is not None:
                resident.sort(key=lambda e: probs[block_idx][e])
            cache.seed([int(e) for e in resident])
            lru.append(cache)
        ctx.policy = _PreGatedSequencePolicy(lru=lru)

    def _policy_state_dict(self, state):
        policy = state.policy
        return {
            "lru": [cache.to_state_dict() for cache in policy.lru],
            "pending": [
                [block, expert, op.index]
                for (block, expert), op in policy.pending.items()
            ],
        }

    def _restore_policy(self, state, payload):
        state.policy = _PreGatedSequencePolicy(
            lru=[
                LRUExpertCache.from_state_dict(cache)
                for cache in payload["lru"]
            ],
            pending={
                (int(block), int(expert)): state.timeline.ops[int(idx)]
                for block, expert, idx in payload["pending"]
            },
        )

    def _upload_with_lru(self, ctx: SequenceState, block_idx: int,
                         expert: int, deps: list[Op]) -> Op | None:
        """Upload ``expert`` evicting via LRU; None if already resident."""
        cache = ctx.policy.lru[block_idx]
        if cache.capacity == 0:
            # No persistent slots: stream through a scratch buffer.
            op = self._upload_expert(ctx, block_idx, expert, deps)
            self._drop_expert(ctx, block_idx, expert)
            return op
        if expert in cache:
            cache.touch(expert)
            return None
        evicted = cache.admit(expert)
        if evicted is not None:
            self._drop_expert(ctx, block_idx, int(evicted))
        return self._upload_expert(ctx, block_idx, expert, deps)

    # ---- prefill: on-demand uploads ------------------------------------------

    def _prepare_prefill_block(self, ctx, block_idx, activated, activity,
                               deps):
        extra: dict[int, list[Op]] = {}
        for expert in np.atleast_1d(activated):
            expert = int(expert)
            op = self._upload_with_lru(ctx, block_idx, expert, deps)
            if op is not None:
                extra[expert] = [op]
        return BlockPlan(
            extra_deps=extra,
            force_gpu={int(e) for e in np.atleast_1d(activated)},
        )

    # ---- decode: predictive prefetch one block ahead --------------------------

    def _decode_blocks(self, ctx: SequenceState, token: int,
                       deps: list[Op]):
        """Decode policy generator: prefetch ahead, then yield routed work."""
        h = self.model.embed(np.asarray([token]))
        last_ops = list(deps)
        for block_idx in range(self.model.n_blocks):
            predicts = self.predictor.can_predict_from(block_idx)
            h_att, logits, attn_op = yield from self._attention(
                ctx, block_idx, h, last_ops, DECODE_PHASE,
                (block_idx, block_idx + 1) if predicts else (block_idx,),
            )
            # Issue the next block's prefetch as soon as this block's
            # non-MoE output exists (overlaps with this block's MoE).
            if predicts:
                prediction = self.predictor.from_logits(block_idx,
                                                        logits[1][0])
                pred_gate = ctx.timeline.add(
                    GPU,
                    self.framework_overhead_s
                    + self.cost_model.gate_time(self.platform.gpu, 1),
                    deps=[attn_op],
                    label=f"pred-gate B{block_idx + 1}", kind="gate",
                )
                for expert in prediction.experts:
                    expert = int(expert)
                    op = self._upload_with_lru(
                        ctx, block_idx + 1, expert, [pred_gate]
                    )
                    if op is not None:
                        ctx.policy.pending[(block_idx + 1, expert)] = op

            gate_op = self._gate(ctx, block_idx, logits[0], [attn_op])
            routing = self.model.blocks[block_idx].route_from_logits(
                logits[0]
            )
            ctx.trace.record(
                DECODE_PHASE, block_idx, ctx.position, routing.experts[0]
            )
            self._record_activation_counters(
                ctx, block_idx, routing.experts[0]
            )
            extra: dict[int, list[Op]] = {}
            for expert in routing.experts[0]:
                expert = int(expert)
                pending = ctx.policy.pending.pop((block_idx, expert), None)
                if pending is not None:
                    extra[expert] = [pending]
                elif not ctx.placement.is_on_gpu(block_idx, expert):
                    # Misprediction: on-demand upload on the critical path.
                    op = self._upload_with_lru(
                        ctx, block_idx, expert, [gate_op]
                    )
                    if op is not None:
                        extra[expert] = [op]
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
