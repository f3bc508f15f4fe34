"""Unit tests for LRU eviction through ``EvictionPolicyCache(policy=LRU)``."""

import pytest

from repro.memory.policies import LRU, EvictionPolicyCache


def _lru(capacity):
    return EvictionPolicyCache(capacity, policy=LRU)


def test_touch_refreshes_recency():
    cache = _lru(2)
    cache.admit(1)
    cache.admit(2)
    cache.touch(1)
    assert cache.admit(3) == 2


def test_admit_existing_refreshes():
    cache = _lru(2)
    cache.admit(1)
    cache.admit(2)
    assert cache.admit(1) is None  # refresh, no eviction
    assert cache.admit(3) == 2


def test_touch_missing_raises():
    cache = _lru(2)
    with pytest.raises(KeyError):
        cache.touch(9)


def test_zero_capacity_never_stores():
    cache = _lru(0)
    assert cache.admit(1) is None
    assert 1 not in cache


def test_negative_capacity_rejected():
    with pytest.raises(ValueError):
        _lru(-1)
