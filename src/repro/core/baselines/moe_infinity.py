"""MoE-Infinity-style baseline (Xue et al., 2024; paper related work).

MoE-Infinity performs *activation-aware* prefetching: it tracks the
current sequence's expert-activation pattern and prefetches the experts
that sequence is likely to need in upcoming layers, rather than caching
by global popularity.  The paper discusses it among the caching/
prefetching family that "struggle[s] to mask expert loading overhead" at
Mixtral-scale expert sizes; we include it as an extra baseline beyond the
paper's evaluated set.

Implementation: prefill activity initializes per-(block, expert)
sequence scores; during decode, after block ``i`` finishes, the engine
prefetches the highest-scoring non-resident experts of block
``i + lookahead`` (LRU eviction), and scores are updated online with the
observed activations.  Execution is GPU-only; misses upload on demand.
"""

from __future__ import annotations

import numpy as np

from repro.core.engine import BaseEngine, BlockPlan, SequenceState
from repro.hardware.platform import Platform
from repro.hardware.timeline import Op
from repro.memory.cache import CacheConfig
from repro.memory.policies import LRU
from repro.model.serialization import decode_array, encode_array
from repro.model.zoo import ModelBundle


class MoEInfinityEngine(BaseEngine):
    """Sequence-activation-aware prefetching over an LRU expert cache.

    ``ctx.policy`` is the sequence's ``(n_blocks, n_experts)`` activation
    score matrix; prefetches wait in the residency's pending uploads.
    """

    name = "moe-infinity"
    eviction_policy = LRU

    def __init__(
        self,
        bundle: ModelBundle,
        platform: Platform,
        cache_config: CacheConfig | None = None,
        calibration_probs: np.ndarray | None = None,
        lookahead: int = 2,
        score_decay: float = 0.9,
    ) -> None:
        super().__init__(
            bundle, platform,
            cache_config=cache_config or CacheConfig(ecr=0.5),
            calibration_probs=calibration_probs,
        )
        if lookahead < 1:
            raise ValueError("lookahead must be positive")
        if not 0.0 < score_decay <= 1.0:
            raise ValueError("score_decay must be in (0, 1]")
        self.lookahead = lookahead
        self.score_decay = score_decay

    def _begin_sequence(self, ctx: SequenceState) -> None:
        ctx.policy = np.zeros(
            (self.model.n_blocks, self.model.n_experts), dtype=np.float64
        )

    def _policy_state_dict(self, state):
        return {"scores": encode_array(state.policy)}

    def _restore_policy(self, state, payload):
        state.policy = decode_array(payload["scores"])

    # ---- prefill: observe + on-demand uploads ---------------------------------

    def _prepare_prefill_block(self, ctx, block_idx, activated, activity,
                               deps):
        ctx.policy[block_idx] += activity
        return self._ensure_resident(ctx, block_idx, activated.tolist(),
                                     deps)

    # ---- decode: activation-aware prefetch ------------------------------------

    def _prepare_decode_block(self, ctx, block_idx, activated, deps):
        scores = ctx.policy
        residency = ctx.residency
        pending = residency.pending
        # Exponential-moving-average update of the sequence's pattern.
        scores[block_idx] *= self.score_decay
        activated = activated.tolist()
        for expert in activated:
            scores[block_idx, expert] += 1.0
        extra: dict[int, list[Op]] = {}
        # Serve this block's activations (prefetched or on demand); a
        # prefetched expert refreshes the cache only if still cached.
        cache = residency.caches[block_idx]
        for expert in activated:
            prefetched = pending.pop((block_idx, expert), None)
            if prefetched is not None:
                extra[expert] = [prefetched]
                if expert in cache:
                    cache.touch(expert)
                continue
            extra.update(self._ensure_resident(
                ctx, block_idx, (expert,), deps
            ).extra_deps)
        # Prefetch the sequence's hottest experts `lookahead` blocks out.
        target = block_idx + self.lookahead
        if target < self.model.n_blocks:
            ranked = np.argsort(-scores[target], kind="stable")
            for expert in ranked[: self.model.top_k].tolist():
                if scores[target, expert] <= 0.0:
                    break
                if residency.placement.is_on_gpu(target, expert) \
                        or (target, expert) in pending:
                    continue
                fetched = self._ensure_resident(ctx, target, (expert,), deps)
                for fetched_expert, (op,) in fetched.extra_deps.items():
                    pending[target, fetched_expert] = op
        return BlockPlan(extra_deps=extra, force_gpu=set(activated))
