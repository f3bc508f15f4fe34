"""DeepSpeed-MII-style baseline.

DeepSpeed-MII brings fast kernels and blocked KV caching but -- as the
paper notes -- "lack[s] an efficient expert offloading mechanism": when
the model does not fit in GPU memory, expert weights stream across PCIe
for every use without persisting in a device-side cache.  We model this as
an engine whose experts always live in host memory and are uploaded
through a scratch buffer each time they are activated; compute itself runs
at a slightly higher GPU efficiency (the optimized kernels), which is
irrelevant next to the transfer wall.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.core.engine import BaseEngine, BlockPlan, SequenceState
from repro.hardware.platform import Platform
from repro.hardware.timeline import Op
from repro.memory.placement import ExpertPlacement
from repro.model.zoo import ModelBundle

KERNEL_SPEEDUP = 1.12


class DeepSpeedMIIEngine(BaseEngine):
    """Streaming baseline: every expert use is a fresh PCIe upload."""

    name = "deepspeed-mii"

    def __init__(self, bundle: ModelBundle, platform: Platform) -> None:
        # Optimized CUDA kernels: bump the GPU efficiency a little.
        gpu = dataclasses.replace(
            platform.gpu,
            mem_efficiency=min(platform.gpu.mem_efficiency * KERNEL_SPEEDUP,
                               1.0),
            compute_efficiency=min(
                platform.gpu.compute_efficiency * KERNEL_SPEEDUP, 1.0
            ),
        )
        platform = dataclasses.replace(platform, gpu=gpu)
        placement = ExpertPlacement.all_on_cpu(
            bundle.model.n_blocks, bundle.model.n_experts
        )
        super().__init__(bundle, platform, initial_placement=placement)

    def _stream_experts(self, ctx: SequenceState, block_idx: int,
                        activated: np.ndarray,
                        deps: list[Op]) -> BlockPlan:
        extra: dict[int, list[Op]] = {}
        force_gpu: set[int] = set()
        for expert in np.atleast_1d(activated):
            expert = int(expert)
            op = self._upload_expert(ctx, block_idx, expert, deps)
            self._drop_expert(ctx, block_idx, expert)
            extra[expert] = [op]
            force_gpu.add(expert)
        return BlockPlan(extra_deps=extra, force_gpu=force_gpu)

    def _prepare_prefill_block(self, ctx, block_idx, activated, activity,
                               deps):
        return self._stream_experts(ctx, block_idx, activated, deps)

    def _prepare_decode_block(self, ctx, block_idx, activated, deps):
        return self._stream_experts(ctx, block_idx, activated, deps)
