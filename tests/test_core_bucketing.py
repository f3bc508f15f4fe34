"""Unit tests for prompt-length bucketing (repro.core.bucketing)."""

import pytest

from repro.core.bucketing import (
    MIN_BUCKET,
    PrefillBucket,
    bucket_key,
    bucket_prompt_lengths,
)


class TestBucketKey:
    def test_power_of_two_ceiling(self):
        assert bucket_key(17) == 32
        assert bucket_key(32) == 32
        assert bucket_key(33) == 64
        assert bucket_key(1000) == 1024

    def test_clamped_below_at_min_bucket(self):
        for n in range(1, MIN_BUCKET + 1):
            assert bucket_key(n) == MIN_BUCKET

    def test_exact_powers_map_to_themselves(self):
        n = MIN_BUCKET
        while n <= 4096:
            assert bucket_key(n) == n
            n *= 2

    def test_custom_min_bucket(self):
        assert bucket_key(3, min_bucket=4) == 4
        assert bucket_key(5, min_bucket=4) == 8

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            bucket_key(0)
        with pytest.raises(ValueError):
            bucket_key(-3)


class TestBucketPromptLengths:
    def test_deterministic(self):
        lengths = [7, 100, 31, 100, 9, 64, 7]
        assert bucket_prompt_lengths(lengths) == bucket_prompt_lengths(
            lengths
        )

    def test_every_index_exactly_once(self):
        lengths = [5, 300, 17, 17, 64, 5, 2048, 33]
        buckets = bucket_prompt_lengths(lengths)
        seen = [i for bucket in buckets for i in bucket.indices]
        assert sorted(seen) == list(range(len(lengths)))
        assert len(seen) == len(set(seen))

    def test_groups_by_bucket_key(self):
        buckets = bucket_prompt_lengths([10, 12, 100, 120, 9])
        assert buckets == [
            PrefillBucket(key=MIN_BUCKET, indices=(0, 1, 4)),
            PrefillBucket(key=128, indices=(2, 3)),
        ]

    def test_first_appearance_order_and_index_order(self):
        # 64 appears before 16's second member; bucket order follows the
        # first member's arrival, indices stay in input order.
        buckets = bucket_prompt_lengths([16, 64, 16, 64])
        assert [b.key for b in buckets] == [16, 64]
        assert buckets[0].indices == (0, 2)
        assert buckets[1].indices == (1, 3)

    def test_empty_input(self):
        assert bucket_prompt_lengths([]) == []

    def test_rejects_invalid_length(self):
        with pytest.raises(ValueError):
            bucket_prompt_lengths([16, 0])
