"""Stacked stage evaluation is byte-identical to per-row evaluation.

The gathered engine round evaluates every cohort member's attention,
norms, gates, experts and LM head as stacked ``(n, r, d)`` calls
(:mod:`repro.model.rows`).  That is only sound because ``np.matmul``
over a stack runs the per-row BLAS call once per item; the guard tests
here pin that property on the installed BLAS for every stage shape, so
a BLAS that breaks it fails loudly instead of silently changing tokens.
The stage tests then compare the stacked stage API against an
independent per-member reference written the way the stages computed
before stacking (2-D calls, ``np.mean``/``np.max``/``np.sum`` wrappers).
"""

import numpy as np
import pytest

from repro.model.attention import KVCache
from repro.model.config import SimSpec
from repro.model.moe_block import MoEBlock
from repro.model.zoo import build_tiny_moe
from repro.perf import TensorCache

#: Default SimSpec, the tiny test model's and the compute bench's width.
SPECS = {
    "default": SimSpec(),
    "tiny": SimSpec(d_model=32, n_heads=2, n_kv_heads=1, d_ff=48,
                    vocab_size=128),
    "wide": SimSpec(d_model=256, n_heads=4, n_kv_heads=2, d_ff=512,
                    vocab_size=512),
}
STACKS = (2, 3, 4, 8)
ROWS = (1, 2, 3)


def _rows(rng, n, r, d):
    return [rng.standard_normal((r, d)).astype(np.float32) for _ in range(n)]


@pytest.fixture(params=sorted(SPECS))
def sim(request):
    return SPECS[request.param]


@pytest.fixture()
def block(sim):
    return MoEBlock(sim, n_experts=4, top_k=2,
                    rng=np.random.default_rng(3), block_idx=1)


# ---- BLAS guard: stacked == per-row bytes ------------------------------------


def test_stacked_matmul_equals_per_row_calls(sim, rng):
    """``(n, r, d) @ W.T`` equals ``n`` separate ``(r, d) @ W.T`` calls
    for every projection, router, SwiGLU and LM-head shape."""
    kv_dim = sim.n_kv_heads * sim.head_dim
    shapes = [
        (sim.d_model, sim.d_model),      # wq, wo
        (kv_dim, sim.d_model),           # wk, wv
        (4, sim.d_model),                # router
        (8, sim.d_model),                # router, 8 experts
        (sim.d_ff, sim.d_model),         # w1, w3
        (sim.d_model, sim.d_ff),         # w2
        (sim.vocab_size, sim.d_model),   # LM head (embedding)
    ]
    for d_out, d_in in shapes:
        weight = rng.standard_normal((d_out, d_in)).astype(np.float32)
        for n in STACKS:
            for r in ROWS:
                xs = _rows(rng, n, r, d_in)
                stacked = np.stack(xs) @ weight.T
                for x, y in zip(xs, stacked):
                    assert (x @ weight.T).tobytes() == y.tobytes(), (
                        f"stacked matmul differs from per-row at "
                        f"W {d_out}x{d_in}, n={n}, r={r}"
                    )


def test_stacked_attention_core_equals_per_member(sim, rng):
    """The 4-D score and value matmuls at equal context length equal the
    per-member 3-D calls."""
    heads, head_dim = sim.n_heads, sim.head_dim
    for n in STACKS:
        for r in ROWS:
            for n_total in (r, r + 5, r + 40):
                q = rng.standard_normal((n, heads, r, head_dim)).astype(
                    np.float32)
                keys = rng.standard_normal(
                    (n, heads, n_total, head_dim)).astype(np.float32)
                scores = q @ np.transpose(keys, (0, 1, 3, 2))
                weights = rng.random((n, heads, r, n_total)).astype(
                    np.float32)
                out = weights @ keys
                for i in range(n):
                    assert (q[i] @ np.transpose(keys[i], (0, 2, 1))
                            ).tobytes() == scores[i].tobytes()
                    assert (weights[i] @ keys[i]).tobytes() \
                        == out[i].tobytes()


# ---- per-member reference (the pre-stacking spelling) ------------------------


def _rms(x, gain, eps=1e-6):
    rms = np.sqrt(np.mean(np.square(x), axis=-1, keepdims=True) + eps)
    return (x / rms) * gain


def _softmax(x):
    exp = np.exp(x - np.max(x, axis=-1, keepdims=True))
    return exp / np.sum(exp, axis=-1, keepdims=True)


def test_lean_kernels_equal_the_wrapper_spelling(rng):
    """RMSNorm and (log-)softmax call the ufunc reductions directly; the
    bytes equal the ``np.mean``/``np.max``/``np.sum`` spelling."""
    from repro.model.layers import RMSNorm, log_softmax, softmax

    for d in (24, 32, 64, 100):
        norm = RMSNorm(d)
        norm.gain = rng.standard_normal(d).astype(np.float32)
        for shape in ((1, d), (5, d), (3, 4, d)):
            for dtype in (np.float32, np.float64):
                x = (rng.standard_normal(shape)
                     * rng.choice([1e-3, 1.0, 1e3])).astype(dtype)
                assert norm(x).tobytes() == _rms(x, norm.gain).tobytes()
                assert softmax(x).tobytes() == _softmax(x).tobytes()
                shifted = x - np.max(x, axis=-1, keepdims=True)
                ref = shifted - np.log(
                    np.sum(np.exp(shifted), axis=-1, keepdims=True))
                assert log_softmax(x).tobytes() == ref.tobytes()


def _rope(x, positions, head_dim, base):
    inv_freq = (1.0 / (base ** (np.arange(0, head_dim, 2) / head_dim))
                ).astype(np.float32)
    angles = np.outer(np.arange(int(positions.max()) + 1,
                                dtype=np.float32), inv_freq)
    cos = np.cos(angles).astype(np.float32)[positions]
    sin = np.sin(angles).astype(np.float32)[positions]
    x1, x2 = x[..., 0::2], x[..., 1::2]
    out = np.empty_like(x)
    out[..., 0::2] = x1 * cos - x2 * sin
    out[..., 1::2] = x1 * sin + x2 * cos
    return out


def _reference_attention_part(block, h, cache, positions):
    """One member's attention_part as computed before stacking."""
    sim, attn = block.sim, block.attention
    x = _rms(h, block.attn_norm.gain)
    n_new = x.shape[0]
    q = (x @ attn.wq.weight.T).reshape(n_new, sim.n_heads, sim.head_dim)
    k = (x @ attn.wk.weight.T).reshape(n_new, sim.n_kv_heads, sim.head_dim)
    v = (x @ attn.wv.weight.T).reshape(n_new, sim.n_kv_heads, sim.head_dim)
    q = _rope(np.transpose(q, (1, 0, 2)), positions, sim.head_dim,
              sim.rope_base)
    k = _rope(np.transpose(k, (1, 0, 2)), positions, sim.head_dim,
              sim.rope_base)
    v = np.transpose(v, (1, 0, 2))
    n_prev = len(cache)
    cache.append(k, v)
    group = sim.n_heads // sim.n_kv_heads
    keys_q = np.repeat(cache.keys, group, axis=0)
    values_q = np.repeat(cache.values, group, axis=0)
    scores = q @ np.transpose(keys_q, (0, 2, 1))
    scores /= np.sqrt(sim.head_dim)
    key_pos = np.arange(keys_q.shape[1])
    query_pos = n_prev + np.arange(n_new)
    mask = key_pos[None, :] > query_pos[:, None]
    scores = np.where(mask[None, :, :], -1e9, scores)
    out = _softmax(scores) @ values_q
    out = np.transpose(out, (1, 0, 2)).reshape(n_new, sim.d_model)
    return h + block.residual_scale * (out @ attn.wo.weight.T)


def _filled_cache(block, rng, length):
    """A KV cache holding ``length`` tokens' worth of random history."""
    sim = block.sim
    cache = block.attention.new_cache()
    if length:
        shape = (sim.n_kv_heads, length, sim.head_dim)
        cache.append(rng.standard_normal(shape).astype(np.float32),
                     rng.standard_normal(shape).astype(np.float32))
    return cache


def _copy_cache(cache):
    return KVCache.from_state_dict(cache.to_state_dict())


def _members(block, rng, specs):
    """``(h, cache, positions)`` per ``(rows, history)`` spec."""
    members = []
    for rows, history in specs:
        cache = _filled_cache(block, rng, history)
        h = rng.standard_normal((rows, block.sim.d_model)).astype(np.float32)
        members.append((h, cache, history + np.arange(rows)))
    return members


def _assert_matches_reference(block, members, outs, caches):
    for (h, cache, positions), out, after in zip(members, outs, caches):
        ref_cache = _copy_cache(cache)
        ref = _reference_attention_part(block, h, ref_cache, positions)
        assert ref.tobytes() == np.ascontiguousarray(out).tobytes()
        assert len(after) == len(ref_cache)
        assert after.keys.tobytes() == ref_cache.keys.tobytes()
        assert after.values.tobytes() == ref_cache.values.tobytes()
        assert after.content_digest == ref_cache.content_digest


MEMBER_SPECS = {
    "decode-equal-context": [(1, 7)] * 4,
    "decode-unequal-context": [(1, 3), (1, 9), (1, 3), (1, 0)],
    "prefill-mixed-rows": [(3, 0), (2, 0), (3, 0), (1, 4)],
}


@pytest.mark.parametrize("case", sorted(MEMBER_SPECS))
def test_attention_rows_equals_per_member_reference(block, rng, case):
    members = _members(block, rng, MEMBER_SPECS[case])
    caches = [_copy_cache(cache) for _, cache, _ in members]
    outs = block.attention_rows([h for h, _, _ in members], caches,
                                [pos for _, _, pos in members])
    _assert_matches_reference(block, members, outs, caches)


def test_attention_rows_with_cache_mixes_hits_and_misses(block, rng):
    members = _members(block, rng, [(1, 5), (1, 5), (1, 2), (2, 0)])
    tensor_cache = TensorCache()
    block.set_compute_cache(tensor_cache, "scope")
    try:
        # Warm members 1 and 3 on copies of their caches.
        for i in (1, 3):
            h, cache, positions = members[i]
            block.attention_part(h, _copy_cache(cache), positions)
        before = tensor_cache.stage_counters["attn"].hits
        caches = [_copy_cache(cache) for _, cache, _ in members]
        outs = block.attention_rows([h for h, _, _ in members], caches,
                                    [pos for _, _, pos in members])
    finally:
        block.set_compute_cache(None, None)
    assert tensor_cache.stage_counters["attn"].hits - before == 2
    _assert_matches_reference(block, members, outs, caches)


def test_repeated_member_counts_as_a_hit(block, rng):
    """Two identical members in one call look up like consecutive solo
    calls: one miss, then one hit that replays the KV append."""
    (h, cache, positions), = _members(block, rng, [(1, 4)])
    tensor_cache = TensorCache()
    block.set_compute_cache(tensor_cache, "scope")
    try:
        caches = [_copy_cache(cache), _copy_cache(cache)]
        outs = block.attention_rows([h, h.copy()], caches,
                                    [positions, positions])
    finally:
        block.set_compute_cache(None, None)
    counters = tensor_cache.stage_counters["attn"]
    assert (counters.misses, counters.hits) == (1, 1)
    assert outs[0].tobytes() == outs[1].tobytes()
    assert caches[0].content_digest == caches[1].content_digest


# ---- norms, gates, experts, LM head ------------------------------------------


def test_gate_and_expert_rows_equal_per_row_reference(block, rng):
    gain = block.ffn_norm.gain
    for n in STACKS:
        for r in ROWS:
            h_atts = _rows(rng, n, r, block.sim.d_model)
            logits = block.gate_logits_rows(h_atts)
            normed = block.ffn_normed_rows(h_atts)
            for h_att, got, norm in zip(h_atts, logits, normed):
                ref_norm = _rms(h_att, gain)
                assert norm.tobytes() == ref_norm.tobytes()
                assert got.tobytes() == (
                    ref_norm @ block.router.gate.weight.T).tobytes()
            token_idx = None if r == 1 else np.array([r - 1])
            outs = block.expert_forward_rows(
                2, [(h_att, token_idx) for h_att in h_atts]
            )
            for h_att, out in zip(h_atts, outs):
                x = _rms(h_att, gain)
                if token_idx is not None:
                    x = x[token_idx]
                assert out.tobytes() == block.experts[2](x).tobytes()


def test_lm_logits_rows_equal_per_row_reference(rng):
    model = build_tiny_moe(seed=0, n_blocks=1).model
    d = model.profile.sim.d_model
    for n in STACKS:
        rows = [rng.standard_normal(d).astype(np.float32) for _ in range(n)]
        for row, got in zip(rows, model.lm_logits_rows(rows)):
            ref = _rms(row[None], model.final_norm.gain) @ model.embedding.T
            assert got.tobytes() == ref[0].tobytes()
