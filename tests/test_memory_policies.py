"""Unit tests for pluggable eviction policies."""

import json

import numpy as np
import pytest

from repro.memory.policies import (
    LFU,
    LRU,
    PRIORITY,
    EvictionPolicyCache,
)


class TestLRUPolicy:
    def test_matches_lru_semantics(self):
        cache = EvictionPolicyCache(2, policy=LRU)
        cache.admit(1)
        cache.admit(2)
        cache.touch(1)
        assert cache.admit(3) == 2

    def test_admit_until_capacity(self):
        cache = EvictionPolicyCache(2, policy=LRU)
        assert cache.admit(1) is None
        assert cache.admit(2) is None
        assert len(cache) == 2

    def test_eviction_order_is_lru(self):
        cache = EvictionPolicyCache(2, policy=LRU)
        cache.admit(1)
        cache.admit(2)
        assert cache.admit(3) == 1  # 1 is least recently used
        assert 2 in cache and 3 in cache

    def test_seed_order(self):
        cache = EvictionPolicyCache(3, policy=LRU)
        cache.seed([4, 5, 6])
        assert cache.experts == [4, 5, 6]
        assert cache.admit(7) == 4  # first seeded = coldest


class TestLFUPolicy:
    def test_evicts_least_frequent(self):
        cache = EvictionPolicyCache(2, policy=LFU)
        cache.admit(1)
        cache.admit(2)
        cache.touch(1)
        cache.touch(1)
        cache.touch(2)
        assert cache.admit(3) == 2  # freq(1)=3, freq(2)=2

    def test_admission_counts_as_use(self):
        cache = EvictionPolicyCache(2, policy=LFU)
        cache.admit(1)
        cache.touch(1)
        cache.admit(2)
        assert cache.admit(3) == 2


class TestPriorityPolicy:
    def test_evicts_lowest_priority(self):
        priorities = np.array([0.9, 0.1, 0.5, 0.7])
        cache = EvictionPolicyCache(2, policy=PRIORITY,
                                    priorities=priorities)
        cache.admit(0)
        cache.admit(1)
        # Recency is irrelevant: expert 1 has the lowest offline priority.
        cache.touch(1)
        assert cache.admit(2) == 1

    def test_requires_priorities(self):
        with pytest.raises(ValueError):
            EvictionPolicyCache(2, policy=PRIORITY)


class TestCommon:
    def test_invalid_policy(self):
        with pytest.raises(ValueError):
            EvictionPolicyCache(2, policy="random")

    def test_negative_capacity(self):
        with pytest.raises(ValueError):
            EvictionPolicyCache(-1)

    def test_zero_capacity(self):
        cache = EvictionPolicyCache(0)
        assert cache.admit(1) is None
        assert 1 not in cache

    def test_readmission_refreshes(self):
        cache = EvictionPolicyCache(2, policy=LRU)
        cache.admit(1)
        cache.admit(2)
        assert cache.admit(1) is None
        assert cache.admit(3) == 2

    def test_touch_missing(self):
        cache = EvictionPolicyCache(2)
        with pytest.raises(KeyError):
            cache.touch(5)

    def test_seed(self):
        cache = EvictionPolicyCache(3, policy=LRU)
        cache.seed([4, 5, 6])
        assert len(cache) == 3
        assert cache.admit(7) == 4


class TestStateRoundTrip:
    """The cache is checkpointed inside every sequence's residency."""

    @staticmethod
    def _round_trip(cache):
        return EvictionPolicyCache.from_state_dict(
            json.loads(json.dumps(cache.to_state_dict())))

    def test_lru_recency_survives(self):
        cache = EvictionPolicyCache(3, policy=LRU)
        cache.seed([4, 5, 6])
        cache.touch(4)
        restored = self._round_trip(cache)
        assert restored.experts == [5, 6, 4]
        assert restored.admit(7) == cache.admit(7) == 5

    def test_lfu_frequency_and_tie_break_survive(self):
        cache = EvictionPolicyCache(3, policy=LFU)
        cache.seed([1, 2, 3])
        cache.touch(1)
        cache.touch(3)  # freq 1: 2 -- freq 2: 1, 3 (1 less recent)
        restored = self._round_trip(cache)
        assert restored.to_state_dict() == cache.to_state_dict()
        assert restored.admit(4) == cache.admit(4) == 2
        restored.touch(4)
        cache.touch(4)
        # All tied at frequency 2: the least recent (1) leaves.
        assert restored.admit(5) == cache.admit(5) == 1

    def test_priority_vector_survives(self):
        cache = EvictionPolicyCache(2, policy=PRIORITY,
                                    priorities=np.array([0.9, 0.1, 0.5]))
        cache.seed([0, 1])
        restored = self._round_trip(cache)
        assert restored.admit(2) == cache.admit(2) == 1


def test_on_demand_engine_accepts_policy(tiny_bundle, platform,
                                         tiny_calibration):
    from repro.core.baselines.on_demand import MoEOnDemandEngine
    from repro.memory.cache import CacheConfig
    from repro.workloads import C4, SequenceGenerator

    gen = SequenceGenerator(C4, tiny_bundle.vocab, seed=111)
    seq = gen.sample_sequence(12, 6, sample_idx=0)
    tokens = {}
    for policy in (LRU, LFU, PRIORITY):
        engine = MoEOnDemandEngine(
            tiny_bundle, platform, cache_config=CacheConfig(ecr=0.25),
            calibration_probs=tiny_calibration, eviction_policy=policy,
        )
        result = engine.generate(seq.prompt_tokens, 6)
        tokens[policy] = result.tokens
    # Policies change schedules, never math: identical outputs.
    np.testing.assert_array_equal(tokens[LRU], tokens[LFU])
    np.testing.assert_array_equal(tokens[LRU], tokens[PRIORITY])
