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

from repro.core.engine import BaseEngine
from repro.hardware.platform import Platform
from repro.memory.cache import CacheConfig
from repro.memory.policies import LRU
from repro.model.zoo import ModelBundle


class MoEOnDemandEngine(BaseEngine):
    """Caching baseline: migrate missing experts to the GPU on demand.

    The shared residency path does all the work (every activated expert
    goes through :meth:`~repro.core.engine.BaseEngine._ensure_resident`
    in prefill and decode); the engine only chooses the eviction policy:
    LRU by default, matching the paper's description, with LFU and
    calibrated-priority available for the eviction-policy ablation.
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
