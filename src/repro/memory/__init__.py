"""Expert placement, cache sizing/initialization, eviction, residency."""

from repro.memory.cache import (
    CacheConfig,
    build_calibrated_placement,
    uniform_placement,
)
from repro.memory.policies import LFU, LRU, POLICIES, PRIORITY, EvictionPolicyCache
from repro.memory.placement import ExpertPlacement
from repro.memory.residency import Residency

__all__ = [
    "CacheConfig",
    "build_calibrated_placement",
    "uniform_placement",
    "LFU",
    "LRU",
    "POLICIES",
    "PRIORITY",
    "EvictionPolicyCache",
    "ExpertPlacement",
    "Residency",
]
