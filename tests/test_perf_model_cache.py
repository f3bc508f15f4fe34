"""Model-side compute-cache behavior: stage memoization stays bitwise.

Covers the cache-aware ``MoEBlock`` stage API, the hoisted ``ffn_norm``
(one normalization shared by the gate and every expert), the grouped
expert dispatch in ``MoEBlock.forward``, the attention KV replay, and the
weights-fingerprint invalidation on quantization.
"""

import numpy as np
import pytest

from repro.model.config import SimSpec
from repro.model.moe_block import MoEBlock
from repro.model.quantization import quantize_experts
from repro.model.zoo import build_tiny_moe
from repro.perf import TensorCache, content_key


@pytest.fixture()
def sim():
    return SimSpec(d_model=32, n_heads=4, n_kv_heads=2, d_ff=48,
                   vocab_size=64)


@pytest.fixture()
def block(sim, rng):
    return MoEBlock(sim, n_experts=4, top_k=2, rng=rng, block_idx=5)


# ---- the ffn_norm hoist (satellite: bitwise property test) -------------------


def test_ffn_norm_hoist_bitwise_over_random_routings(block, rng):
    """``ffn_norm(h_att)[t]`` == ``ffn_norm(h_att[t])`` for every token.

    RMSNorm is row-wise, so hoisting the normalization out of the
    per-expert calls (old: ``experts[e](ffn_norm(h_att[t:t+1]))``) into
    one shared pass (new: ``expert_forward(e, h_att, token_idx=[t])``)
    must be *bitwise* — not merely approximately — equal, for arbitrary
    routings.
    """
    for trial in range(10):
        n_tokens = int(rng.integers(1, 7))
        h_att = rng.standard_normal((n_tokens, 32)).astype(np.float32)
        h_att *= rng.choice([1e-3, 1.0, 1e3])  # exercise scale extremes
        for t in range(n_tokens):
            for e in rng.choice(4, size=2, replace=False):
                old = block.experts[e](block.ffn_norm(h_att[t : t + 1]))
                new = block.expert_forward(int(e), h_att, token_idx=[t])
                np.testing.assert_array_equal(old, new)


def test_ffn_normed_identity_memo_computes_once(block, rng, monkeypatch):
    h_att = rng.standard_normal((3, 32)).astype(np.float32)
    calls = []
    real = block.ffn_norm.__call__
    monkeypatch.setattr(
        block, "ffn_norm", lambda x: (calls.append(1), real(x))[1]
    )
    first = block.ffn_normed(h_att)
    second = block.ffn_normed(h_att)  # same array object: memo hit
    assert second is first
    assert len(calls) == 1
    # A different array (even equal bytes) recomputes — the memo is by
    # identity, correctness comes from the content-addressed cache.
    block.ffn_normed(h_att.copy())
    assert len(calls) == 2


# ---- grouped dispatch (satellite: bitwise equivalence) -----------------------


def test_forward_grouped_dispatch_matches_reference_bitwise(block, rng):
    """``forward`` equals a hand-rolled grouped per-expert dispatch."""
    h = rng.standard_normal((5, 32)).astype(np.float32)
    positions = np.arange(5)
    out, decision = block.forward(h, block.attention.new_cache(), positions)

    cache_b = block.attention.new_cache()
    h_att = block.attention_part(h, cache_b, positions)
    routing = block.route(h_att)
    np.testing.assert_array_equal(routing.experts, decision.experts)
    normed = block.ffn_norm(h_att)
    outs = np.empty((5, block.top_k, 32), dtype=np.float32)
    for expert_idx in np.unique(routing.experts):
        mask = routing.experts == expert_idx
        token_idx = np.nonzero(mask.any(axis=1))[0]
        batch = block.experts[int(expert_idx)](normed[token_idx])
        for row, t in enumerate(token_idx):
            for slot in np.nonzero(mask[t])[0]:
                outs[t, int(slot)] = batch[row]
    np.testing.assert_array_equal(
        out, block.combine(h_att, outs, routing.weights)
    )


def test_forward_cold_and_warm_cache_bitwise_equal(block, rng):
    """No-cache, cache-cold, and cache-warm forwards are byte-identical."""
    h = rng.standard_normal((4, 32)).astype(np.float32)
    positions = np.arange(4)
    baseline, decision = block.forward(
        h, block.attention.new_cache(), positions
    )

    cache = TensorCache()
    block.set_compute_cache(cache, "scope")
    try:
        cold, cold_dec = block.forward(h, block.attention.new_cache(),
                                       positions)
        assert cache.hits == 0 and cache.misses > 0
        warm, warm_dec = block.forward(h, block.attention.new_cache(),
                                       positions)
        assert cache.hits > 0
    finally:
        block.set_compute_cache(None, None)

    np.testing.assert_array_equal(cold, baseline)
    np.testing.assert_array_equal(warm, baseline)
    np.testing.assert_array_equal(cold_dec.experts, decision.experts)
    np.testing.assert_array_equal(warm_dec.experts, decision.experts)
    np.testing.assert_array_equal(warm_dec.weights, decision.weights)


# ---- attention KV replay -----------------------------------------------------


def test_attention_hit_replays_kv_append(block, rng):
    h = rng.standard_normal((3, 32)).astype(np.float32)
    positions = np.arange(3)
    cache = TensorCache()
    block.set_compute_cache(cache, "scope")
    try:
        kv_a = block.attention.new_cache()
        miss = block.attention_part(h, kv_a, positions)
        kv_b = block.attention.new_cache()
        hit = block.attention_part(h, kv_b, positions)
    finally:
        block.set_compute_cache(None, None)
    assert cache.stage_counters["attn"].hits == 1
    np.testing.assert_array_equal(hit, miss)
    # The hit replayed the append: both KV caches hold identical bytes
    # and identical digests (so subsequent decode steps key identically).
    assert len(kv_b) == len(kv_a) == 3
    np.testing.assert_array_equal(kv_b.keys, kv_a.keys)
    np.testing.assert_array_equal(kv_b.values, kv_a.values)
    assert kv_b.content_digest == kv_a.content_digest


def test_truncated_kv_cache_bypasses_memoization(block, rng):
    h = rng.standard_normal((2, 32)).astype(np.float32)
    cache = TensorCache()
    block.set_compute_cache(cache, "scope")
    try:
        kv = block.attention.new_cache()
        block.attention_part(h, kv, np.arange(2))
        kv.truncate(1)
        assert kv.content_digest is None
        before = cache.stage_counters["attn"].lookups
        block.attention_part(h, kv, np.arange(1, 3))
        assert cache.stage_counters["attn"].lookups == before  # bypassed
    finally:
        block.set_compute_cache(None, None)


# ---- routing stages ----------------------------------------------------------


def test_route_and_gate_stages_hit_on_repeat(block, rng):
    h_att = rng.standard_normal((3, 32)).astype(np.float32)
    baseline = block.route(h_att)
    cache = TensorCache()
    block.set_compute_cache(cache, "scope")
    try:
        cold = block.route(h_att)
        warm = block.route(h_att.copy())  # equal bytes, different object
    finally:
        block.set_compute_cache(None, None)
    assert cache.stage_counters["gate"].hits == 1
    assert cache.stage_counters["route"].hits == 1
    for decision in (cold, warm):
        np.testing.assert_array_equal(decision.experts, baseline.experts)
        np.testing.assert_array_equal(decision.weights, baseline.weights)
        np.testing.assert_array_equal(decision.logits, baseline.logits)


def test_expert_token_idx_canonicalization(block, rng):
    """Full-coverage ``token_idx`` shares the plain-call cache key."""
    h_att = rng.standard_normal((3, 32)).astype(np.float32)
    cache = TensorCache()
    block.set_compute_cache(cache, "scope")
    try:
        a = block.expert_forward(0, h_att)
        b = block.expert_forward(0, h_att, token_idx=np.arange(3))
    finally:
        block.set_compute_cache(None, None)
    assert cache.stage_counters["expert"].hits == 1
    np.testing.assert_array_equal(a, b)


def test_stage_keys_keep_the_flat_spelling(block, rng):
    """Prefix-seeded stage keys are the keys the parts spelled out give."""
    h_att = rng.standard_normal((3, 32)).astype(np.float32)
    cache = TensorCache()
    block.set_compute_cache(cache, "scope")
    try:
        block.expert_forward(2, h_att)
        logits = block.gate_logits(h_att)
        block.route_from_logits(logits)
    finally:
        block.set_compute_cache(None, None)
    digest = content_key(h_att)
    for key, stage in [
        (content_key("scope", 5, "expert", 2, 3, digest, None), "expert"),
        (content_key("scope", 5, "gate", digest), "gate"),
        (content_key("scope", 5, "route", logits), "route"),
    ]:
        assert cache.get(key, stage) is not None, stage


# ---- model-level plumbing ----------------------------------------------------


def test_attach_detach_compute_cache():
    model = build_tiny_moe(seed=0, n_blocks=2).model
    cache = TensorCache()
    model.attach_compute_cache(cache)
    scope = model.weights_fingerprint()
    assert model.compute_cache is cache
    assert all(b.compute_cache is cache and b.cache_scope == scope
               for b in model.blocks)
    model.detach_compute_cache()
    assert model.compute_cache is None
    assert all(b.compute_cache is None for b in model.blocks)


def test_forward_exact_bitwise_with_shared_cache(rng):
    model = build_tiny_moe(seed=0, n_blocks=2).model
    tokens = rng.integers(0, model.profile.sim.vocab_size, size=6)
    baseline, _ = model.forward_exact(tokens)
    cache = TensorCache()
    model.attach_compute_cache(cache)
    try:
        cold, _ = model.forward_exact(tokens)
        warm, _ = model.forward_exact(tokens)
    finally:
        model.detach_compute_cache()
    assert cache.hits > 0
    np.testing.assert_array_equal(cold, baseline)
    np.testing.assert_array_equal(warm, baseline)


def test_quantization_invalidates_weights_fingerprint(rng):
    """Stale pre-quantization entries can never serve the mutated model."""
    model = build_tiny_moe(seed=0, n_blocks=2).model
    h_att = rng.standard_normal(
        (2, model.profile.sim.d_model)
    ).astype(np.float32)
    cache = TensorCache()
    model.attach_compute_cache(cache)
    try:
        fp_before = model.weights_fingerprint()
        before = model.blocks[0].expert_forward(0, h_att)
        quantize_experts(model, bits=4)
        fp_after = model.weights_fingerprint()
        assert fp_after != fp_before
        assert model.blocks[0].cache_scope == fp_after
        after = model.blocks[0].expert_forward(0, h_att)
    finally:
        model.detach_compute_cache()
    # Quantization changed the math; a stale hit would have hidden it.
    assert not np.array_equal(before, after)
    np.testing.assert_array_equal(
        after, model.blocks[0].expert_forward(0, h_att)
    )
