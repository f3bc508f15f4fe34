"""MoE-OnDemand baseline.

The placement starts from the calibrated cache, exactly like DAOP, but any
activated expert that is not GPU-resident is *migrated* to the GPU before
executing (evicting the least-recently-used cached expert of that block).
Every miss therefore pays the full expert-upload latency on the critical
path -- the ~32x-slower-than-compute transfer the paper's Table I
quantifies -- which is what caps this family of methods below one token
per second on Mixtral 8x7B.
"""

from __future__ import annotations

import numpy as np

from repro.core.engine import BaseEngine, BlockPlan, SequenceState
from repro.hardware.platform import Platform
from repro.hardware.timeline import Op
from repro.memory.cache import CacheConfig
from repro.memory.policies import LRU, EvictionPolicyCache
from repro.model.zoo import ModelBundle


class MoEOnDemandEngine(BaseEngine):
    """Caching baseline: migrate missing experts to the GPU on demand.

    The eviction policy is pluggable (LRU by default, matching the paper's
    description; LFU and calibrated-priority are available for the
    eviction-policy ablation).
    """

    name = "moe-ondemand"

    def __init__(
        self,
        bundle: ModelBundle,
        platform: Platform,
        cache_config: CacheConfig | None = None,
        calibration_probs=None,
        eviction_policy: str = LRU,
    ) -> None:
        super().__init__(
            bundle, platform,
            cache_config=cache_config or CacheConfig(ecr=0.5),
            calibration_probs=calibration_probs,
        )
        self.eviction_policy = eviction_policy

    def _begin_sequence(self, ctx: SequenceState) -> None:
        # Per-block policy cache over the GPU-resident experts, seeded from
        # the calibrated placement (coldest first so hot experts survive).
        caches: list[EvictionPolicyCache] = []
        probs = self.calibration_probs
        for block_idx in range(self.model.n_blocks):
            resident = list(ctx.placement.gpu_experts(block_idx))
            cache = EvictionPolicyCache(
                capacity=max(len(resident), 0),
                policy=self.eviction_policy,
                priorities=None if probs is None else probs[block_idx],
            )
            if probs is not None:
                resident.sort(key=lambda e: probs[block_idx][e])
            cache.seed([int(e) for e in resident])
            caches.append(cache)
        ctx.policy = caches

    def _policy_state_dict(self, state):
        return {
            "caches": [cache.to_state_dict() for cache in state.policy],
        }

    def _restore_policy(self, state, payload):
        state.policy = [
            EvictionPolicyCache.from_state_dict(cache)
            for cache in payload["caches"]
        ]

    def _ensure_resident(self, ctx: SequenceState, block_idx: int,
                         activated: np.ndarray,
                         deps: list[Op]) -> BlockPlan:
        extra: dict[int, list[Op]] = {}
        cache = ctx.policy[block_idx]
        activated = [int(e) for e in np.atleast_1d(activated)]
        if cache.capacity == 0:
            # No GPU slots at all: experts stream through a scratch buffer;
            # each use is a fresh upload and nothing stays resident.
            force_gpu: set[int] = set()
            for expert in activated:
                op = self._upload_expert(ctx, block_idx, expert, deps)
                self._drop_expert(ctx, block_idx, expert)
                extra[expert] = [op]
                force_gpu.add(expert)
            return BlockPlan(extra_deps=extra, force_gpu=force_gpu)
        # Hits refresh recency; misses upload + evict LRU.  If the cache is
        # smaller than the activated set, an activated expert can be
        # evicted by a sibling's admission before it executes -- it still
        # runs on the GPU out of the staging buffer its upload landed in.
        for expert in activated:
            if expert in cache:
                cache.touch(expert)
                continue
            evicted = cache.admit(expert)
            if evicted is not None:
                self._drop_expert(ctx, block_idx, int(evicted))
            op = self._upload_expert(ctx, block_idx, expert, deps)
            extra[expert] = [op]
        return BlockPlan(extra_deps=extra, force_gpu=set(activated))

    def _prepare_prefill_block(self, ctx, block_idx, activated, activity,
                               deps):
        return self._ensure_resident(ctx, block_idx, activated, deps)

    def _prepare_decode_block(self, ctx, block_idx, activated, deps):
        return self._ensure_resident(ctx, block_idx, activated, deps)
