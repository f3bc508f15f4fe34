"""DeepSpeed-MII-style baseline.

DeepSpeed-MII brings fast kernels and blocked KV caching but -- as the
paper notes -- "lack[s] an efficient expert offloading mechanism": when
the model does not fit in GPU memory, expert weights stream across PCIe
for every use without persisting in a device-side cache.  We model this as
an engine whose experts always live in host memory and are uploaded
through a staging buffer each time they are activated; compute itself runs
at a slightly higher GPU efficiency (the optimized kernels), which is
irrelevant next to the transfer wall.
"""

from __future__ import annotations

import dataclasses

from repro.core.engine import BaseEngine
from repro.hardware.platform import Platform
from repro.memory.placement import ExpertPlacement
from repro.memory.policies import LRU
from repro.model.zoo import ModelBundle

KERNEL_SPEEDUP = 1.12


class DeepSpeedMIIEngine(BaseEngine):
    """Streaming baseline: every expert use is a fresh PCIe upload.

    No expert is GPU-resident, so every block's eviction cache has no
    slots and the shared residency path streams each activated expert
    through a staging buffer.
    """

    name = "deepspeed-mii"
    eviction_policy = LRU

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
