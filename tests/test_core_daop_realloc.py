"""Tests for the decode-phase re-allocation extension (paper §VI-B).

The paper restricts migration to prefill and identifies within-sequence
drift (GSM8K) as the resulting weakness; this extension re-runs
Algorithm 1 during decode over a sliding activation window.
"""

import numpy as np
import pytest

from repro.core.daop import DAOPEngine
from repro.core.engine import SequenceRequest
from repro.memory.cache import CacheConfig
from repro.workloads import GSM8K, SequenceGenerator

DRIFTY = GSM8K.with_overrides(drift_rate=0.15)


def make(tiny_bundle, platform, tiny_calibration, **kw):
    return DAOPEngine(
        tiny_bundle, platform,
        cache_config=CacheConfig(ecr=0.25),
        calibration_probs=tiny_calibration,
        prediction_start_block=2,
        **kw,
    )


@pytest.fixture(scope="module")
def drifty_sequences(tiny_bundle):
    gen = SequenceGenerator(DRIFTY, tiny_bundle.vocab, seed=71)
    return [gen.sample_sequence(16, 48, sample_idx=i) for i in range(3)]


def test_validation(tiny_bundle, platform, tiny_calibration):
    with pytest.raises(ValueError):
        make(tiny_bundle, platform, tiny_calibration,
             decode_realloc_interval=0)
    with pytest.raises(ValueError):
        make(tiny_bundle, platform, tiny_calibration,
             decode_realloc_interval=5, decode_realloc_window=0)


def test_disabled_by_default(tiny_bundle, platform, tiny_calibration,
                             drifty_sequences):
    engine = make(tiny_bundle, platform, tiny_calibration)
    seq = drifty_sequences[0]
    result = engine.generate(seq.prompt_tokens, 16,
                             forced_tokens=seq.continuation_tokens)
    assert result.stats.counters.decode_swaps == 0
    # Paper behaviour: no uploads after prefill.
    uploads = [op for op in result.timeline.ops
               if op.kind == "expert_upload"]
    assert all(op.start <= result.stats.prefill_time_s for op in uploads)


def test_realloc_swaps_during_decode(tiny_bundle, platform,
                                     tiny_calibration, drifty_sequences):
    engine = make(tiny_bundle, platform, tiny_calibration,
                  decode_realloc_interval=8)
    total = 0
    for seq in drifty_sequences:
        result = engine.generate(seq.prompt_tokens, 32,
                                 forced_tokens=seq.continuation_tokens)
        total += result.stats.counters.decode_swaps
    assert total > 0


def test_realloc_preserves_cache_size(tiny_bundle, platform,
                                      tiny_calibration, drifty_sequences):
    engine = make(tiny_bundle, platform, tiny_calibration,
                  decode_realloc_interval=8)
    seq = drifty_sequences[0]
    result = engine.generate(seq.prompt_tokens, 32,
                             forced_tokens=seq.continuation_tokens)
    assert result.placement.expert_cache_ratio == pytest.approx(
        engine.initial_placement.expert_cache_ratio
    )


def test_realloc_improves_hit_rate_under_drift(tiny_bundle, platform,
                                               tiny_calibration,
                                               drifty_sequences):
    """On drifting input, refreshing the cache mid-decode lifts residency."""
    hits = {}
    for interval in (None, 8):
        engine = make(tiny_bundle, platform, tiny_calibration,
                      decode_realloc_interval=interval)
        rates = []
        for seq in drifty_sequences:
            result = engine.generate(
                seq.prompt_tokens, 48,
                forced_tokens=seq.continuation_tokens,
            )
            rates.append(result.stats.counters.gpu_hit_rate)
        hits[interval] = float(np.mean(rates))
    assert hits[8] > hits[None]


def test_decode_window_matches_trace(tiny_bundle, platform,
                                     tiny_calibration, drifty_sequences):
    """The O(n_blocks) tail scan must count exactly the trace's events.

    Re-derives the sliding activation window from the recorded trace and
    checks the engine's incrementally maintained window agrees.
    """
    engine = make(tiny_bundle, platform, tiny_calibration,
                  decode_realloc_interval=8, decode_realloc_window=6)
    seq = drifty_sequences[0]
    state = engine.start(SequenceRequest(
        prompt_tokens=seq.prompt_tokens, max_new_tokens=16,
        forced_tokens=seq.continuation_tokens,
    ))
    while not state.done:
        engine.step(state)
    result = engine.finish(state)
    per_token = {}
    for event in result.trace.events:
        if event.phase != "decode":
            continue
        counts = per_token.setdefault(
            event.token_pos,
            np.zeros((engine.model.n_blocks, engine.model.n_experts)),
        )
        for expert in event.experts:
            counts[event.block, expert] += 1.0
    expected = [per_token[pos] for pos in sorted(per_token)][-6:]
    window = list(state.policy.window)
    assert len(window) == len(expected)
    for got, want in zip(window, expected):
        np.testing.assert_array_equal(got, want)


def test_pending_uploads_stay_gpu_resident(tiny_bundle, platform,
                                           tiny_calibration,
                                           drifty_sequences):
    """A swap-out must purge any in-flight upload of the evicted expert."""
    engine = make(tiny_bundle, platform, tiny_calibration,
                  decode_realloc_interval=4)
    for seq in drifty_sequences:
        result = engine.generate(seq.prompt_tokens, 24,
                                 forced_tokens=seq.continuation_tokens)
        for block, expert in result.pending_uploads:
            assert result.placement.is_on_gpu(block, expert), (
                f"pending upload for E{expert}@B{block} references a "
                "non-resident expert"
            )


def test_realloc_passes_invariant_audit(tiny_bundle, platform,
                                        tiny_calibration, drifty_sequences,
                                        audit_result):
    """Decode-phase migration must still satisfy every audited invariant."""
    engine = make(tiny_bundle, platform, tiny_calibration,
                  decode_realloc_interval=4)
    seq = drifty_sequences[1]
    result = engine.generate(seq.prompt_tokens, 24,
                             forced_tokens=seq.continuation_tokens)
    assert result.stats.counters.decode_swaps > 0
    audit_result(engine, result, platform=platform)


def test_realloc_uploads_depend_on_decode_progress(tiny_bundle, platform,
                                                   tiny_calibration,
                                                   drifty_sequences):
    """Decode-phase uploads must start after the triggering token."""
    engine = make(tiny_bundle, platform, tiny_calibration,
                  decode_realloc_interval=4)
    seq = drifty_sequences[1]
    result = engine.generate(seq.prompt_tokens, 24,
                             forced_tokens=seq.continuation_tokens)
    decode_uploads = [
        op for op in result.timeline.ops
        if op.kind == "expert_upload"
        and op.start > result.stats.prefill_time_s
    ]
    if result.stats.counters.decode_swaps:
        assert decode_uploads
