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

from dataclasses import dataclass, field

import numpy as np

from repro.core.engine import BaseEngine, BlockPlan, SequenceState
from repro.hardware.platform import Platform
from repro.hardware.timeline import Op
from repro.memory.cache import CacheConfig
from repro.memory.lru import LRUExpertCache
from repro.model.serialization import decode_array, encode_array
from repro.model.zoo import ModelBundle


@dataclass
class _InfinitySequencePolicy:
    """Per-sequence prefetch state (``ctx.policy``)."""

    lru: list
    scores: np.ndarray
    pending: dict = field(default_factory=dict)


class MoEInfinityEngine(BaseEngine):
    """Sequence-activation-aware prefetching over an LRU expert cache."""

    name = "moe-infinity"

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
        lru: list[LRUExpertCache] = []
        probs = self.calibration_probs
        for block_idx in range(self.model.n_blocks):
            resident = list(ctx.placement.gpu_experts(block_idx))
            cache = LRUExpertCache(capacity=max(len(resident), 0))
            if probs is not None:
                resident.sort(key=lambda e: probs[block_idx][e])
            cache.seed([int(e) for e in resident])
            lru.append(cache)
        ctx.policy = _InfinitySequencePolicy(
            lru=lru,
            scores=np.zeros(
                (self.model.n_blocks, self.model.n_experts),
                dtype=np.float64,
            ),
        )

    def _policy_state_dict(self, state):
        policy = state.policy
        return {
            "lru": [cache.to_state_dict() for cache in policy.lru],
            "scores": encode_array(policy.scores),
            "pending": [
                [block, expert, op.index]
                for (block, expert), op in policy.pending.items()
            ],
        }

    def _restore_policy(self, state, payload):
        state.policy = _InfinitySequencePolicy(
            lru=[
                LRUExpertCache.from_state_dict(cache)
                for cache in payload["lru"]
            ],
            scores=decode_array(payload["scores"]),
            pending={
                (int(block), int(expert)): state.timeline.ops[int(idx)]
                for block, expert, idx in payload["pending"]
            },
        )

    def _observe(self, ctx: SequenceState, block_idx: int,
                 experts) -> None:
        """Exponential-moving-average update of the sequence's pattern."""
        ctx.policy.scores[block_idx] *= self.score_decay
        for expert in np.atleast_1d(experts):
            ctx.policy.scores[block_idx, int(expert)] += 1.0

    def _upload_with_lru(self, ctx: SequenceState, block_idx: int,
                         expert: int, deps: list[Op]) -> Op | None:
        cache = ctx.policy.lru[block_idx]
        if cache.capacity == 0:
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

    # ---- prefill: observe + on-demand uploads ---------------------------------

    def _prepare_prefill_block(self, ctx, block_idx, activated, activity,
                               deps):
        ctx.policy.scores[block_idx] += activity
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

    # ---- decode: activation-aware prefetch ------------------------------------

    def _prepare_decode_block(self, ctx, block_idx, activated, deps):
        policy = ctx.policy
        self._observe(ctx, block_idx, activated)
        extra: dict[int, list[Op]] = {}
        # Serve this block's activations (prefetched or on demand).
        for expert in np.atleast_1d(activated):
            expert = int(expert)
            pending = policy.pending.pop((block_idx, expert), None)
            if pending is not None:
                extra[expert] = [pending]
                if expert in policy.lru[block_idx]:
                    policy.lru[block_idx].touch(expert)
                continue
            op = self._upload_with_lru(ctx, block_idx, expert, deps)
            if op is not None:
                extra[expert] = [op]
        # Prefetch the sequence's hottest experts `lookahead` blocks out.
        target = block_idx + self.lookahead
        if target < self.model.n_blocks:
            ranked = np.argsort(-policy.scores[target], kind="stable")
            for expert in ranked[: self.model.top_k]:
                expert = int(expert)
                if policy.scores[target, expert] <= 0.0:
                    break
                if ctx.placement.is_on_gpu(target, expert):
                    continue
                if (target, expert) in policy.pending:
                    continue
                op = self._upload_with_lru(ctx, target, expert, deps)
                if op is not None:
                    policy.pending[(target, expert)] = op
        return BlockPlan(
            extra_deps=extra,
            force_gpu={int(e) for e in np.atleast_1d(activated)},
        )
