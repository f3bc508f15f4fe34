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

from repro.core.engine import BaseEngine, SequenceState
from repro.hardware.platform import Platform
from repro.hardware.timeline import GPU, H2D, Op
from repro.memory.cache import CacheConfig
from repro.memory.policies import LRU
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
    eviction_policy = LRU

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

    def _transfer_expert(self, ctx: SequenceState, block_idx: int,
                         expert: int, deps: list[Op]) -> Op:
        # A quantized, derated upload, then the dequantization the
        # expert's GPU execution waits on.
        up = ctx.timeline.add(
            H2D,
            self.stream_overhead
            * self.cost_model.expert_transfer_time(self.quant_ratio),
            deps=deps,
            label=f"up E{expert}@B{block_idx}",
            kind="expert_upload",
        )
        self._admit_expert(ctx, block_idx, expert)
        return ctx.timeline.add(
            GPU,
            self.cost_model.dequant_time(self.platform.gpu, self.quant_ratio),
            deps=[up],
            label=f"dequant E{expert}@B{block_idx}",
            kind="dequant",
        )
