"""Mixtral-Offloading baseline.

Mixtral-Offloading (Eliseev & Mazur, 2023) keeps a fixed number of expert
slots per layer on the GPU with LRU replacement and accelerates the
unavoidable uploads with mixed quantization: experts cross PCIe in
compressed form (we model the HQQ-style ~4-bit path as a configurable
``quant_ratio`` of the fp16 payload) and pay a small dequantization op on
arrival.  All expert compute still happens on the GPU, so a cache miss
stalls the block on the (smaller) transfer.
"""

from __future__ import annotations

import numpy as np

from repro.core.engine import BaseEngine, BlockPlan, SequenceState
from repro.hardware.platform import Platform
from repro.hardware.timeline import GPU, Op
from repro.memory.cache import CacheConfig
from repro.memory.lru import LRUExpertCache
from repro.model.zoo import ModelBundle

DEFAULT_QUANT_RATIO = 0.25
# Measured Mixtral-Offloading deployments move quantized experts as many
# small layer-sharded buffers through Python-managed staging, reaching a
# far lower fraction of PCIe bandwidth than one contiguous pinned copy;
# the factor below derates its uploads accordingly (its end-to-end rate on
# the paper's platform is below one token per second, Fig. 9).
DEFAULT_STREAM_OVERHEAD = 3.0


class MixtralOffloadingEngine(BaseEngine):
    """LRU expert cache with quantized uploads."""

    name = "mixtral-offloading"

    def __init__(
        self,
        bundle: ModelBundle,
        platform: Platform,
        cache_config: CacheConfig | None = None,
        calibration_probs: np.ndarray | None = None,
        quant_ratio: float = DEFAULT_QUANT_RATIO,
        stream_overhead: float = DEFAULT_STREAM_OVERHEAD,
    ) -> None:
        super().__init__(
            bundle, platform,
            cache_config=cache_config or CacheConfig(ecr=0.5),
            calibration_probs=calibration_probs,
        )
        if not 0 < quant_ratio <= 1:
            raise ValueError("quant_ratio must be in (0, 1]")
        if stream_overhead < 1:
            raise ValueError("stream_overhead must be >= 1")
        self.quant_ratio = quant_ratio
        self.stream_overhead = stream_overhead

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
        ctx.policy = lru

    def _policy_state_dict(self, state):
        return {
            "lru": [cache.to_state_dict() for cache in state.policy],
        }

    def _restore_policy(self, state, payload):
        state.policy = [
            LRUExpertCache.from_state_dict(cache)
            for cache in payload["lru"]
        ]

    def _ensure_resident(self, ctx: SequenceState, block_idx: int,
                         activated: np.ndarray,
                         deps: list[Op]) -> BlockPlan:
        extra: dict[int, list[Op]] = {}
        cache = ctx.policy[block_idx]
        force_gpu: set[int] = set()
        for expert in np.atleast_1d(activated):
            expert = int(expert)
            if cache.capacity > 0 and expert in cache:
                cache.touch(expert)
                continue
            up = ctx.timeline.add(
                "h2d",
                self.stream_overhead
                * self.cost_model.expert_transfer_time(self.quant_ratio),
                deps=deps,
                label=f"up E{expert}@B{block_idx}",
                kind="expert_upload",
            )
            from repro.hardware.device import DeviceKind
            ctx.placement.set_device(block_idx, expert, DeviceKind.GPU)
            ctx.counters.expert_uploads += 1
            dequant = ctx.timeline.add(
                GPU,
                self.cost_model.dequant_time(
                    self.platform.gpu, self.quant_ratio
                ),
                deps=[up],
                label=f"dequant E{expert}@B{block_idx}",
                kind="dequant",
            )
            extra[expert] = [dequant]
            if cache.capacity > 0:
                evicted = cache.admit(expert)
                if evicted is not None:
                    self._drop_expert(ctx, block_idx, int(evicted))
            else:
                self._drop_expert(ctx, block_idx, expert)
        # All activated experts execute on the GPU: even one evicted by a
        # sibling's admission before executing runs out of its staging
        # buffer (Mixtral-Offloading never computes experts on the CPU).
        force_gpu.update(int(e) for e in np.atleast_1d(activated))
        return BlockPlan(extra_deps=extra, force_gpu=force_gpu)

    def _prepare_prefill_block(self, ctx, block_idx, activated, activity,
                               deps):
        return self._ensure_resident(ctx, block_idx, activated, deps)

    def _prepare_decode_block(self, ctx, block_idx, activated, deps):
        return self._ensure_resident(ctx, block_idx, activated, deps)
