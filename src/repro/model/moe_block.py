"""One MoE transformer block with a fine-grained execution API.

The inference engines in :mod:`repro.core` schedule attention, gating, and
individual expert FFNs separately (that is the whole point of DAOP), so the
block exposes each stage as its own method instead of a single ``forward``.

Every stage is *cache-aware*: when a content-addressed compute cache
(duck-typed ``repro.perf.TensorCache``) is attached via
:meth:`set_compute_cache` — normally through
``MoETransformer.attach_compute_cache`` — each stage first looks up the
digest of its inputs and only computes on a miss.  Because the stages are
pure functions of their input bytes and the block weights, a hit is
bitwise-identical to recomputation; with no cache attached the stages
compute directly, unchanged.
"""

from __future__ import annotations

import math

import numpy as np

from repro.model.attention import GroupedQueryAttention, KVCache
from repro.model.config import SimSpec
from repro.model.experts import SwiGLUExpert
from repro.model.gating import Router, RoutingDecision, group_by_expert
from repro.model.layers import RMSNorm
from repro.model.rows import cached_rows, row_groups, stack, stack_rows


class MoEBlock:
    """Self-attention followed by a top-k mixture-of-experts FFN."""

    def __init__(self, sim: SimSpec, n_experts: int, top_k: int,
                 rng: np.random.Generator, block_idx: int = 0) -> None:
        self.sim = sim
        self.n_experts = n_experts
        self.top_k = top_k
        self.block_idx = block_idx
        # Early blocks update the residual stream more strongly (Fig. 5).
        self.residual_scale = sim.residual_scale * (
            1.0 + sim.early_residual_boost * math.exp(-float(block_idx))
        )
        self.attn_norm = RMSNorm(sim.d_model)
        self.attention = GroupedQueryAttention(sim, rng)
        self.ffn_norm = RMSNorm(sim.d_model)
        self.router = Router(sim.d_model, n_experts, top_k, rng)
        self.experts = [
            SwiGLUExpert(sim.d_model, sim.d_ff, rng) for _ in range(n_experts)
        ]
        # Content-addressed compute cache (duck-typed repro.perf.TensorCache)
        # and its key namespace (the owning model's weights fingerprint).
        # None means "compute directly".
        self.compute_cache = None
        self.cache_scope: str | None = None
        # Per-stage key prefixes — ``(scope, block_idx, stage)`` digested
        # once by the attached cache — and one per expert for the expert
        # stage, whose keys also open with the expert id.
        self._key_prefixes: dict = {}
        self._expert_key_prefixes: list = []
        # Identity memo for ffn_norm without a cache: id(h_att) ->
        # (h_att, normed) for the arrays of the last call that computed
        # anything.  Holding the input references keeps their id()s
        # stable and valid.
        self._norm_memo: dict = {}
        # With a cache attached: a bounded identity LRU built by the
        # cache's duck-typed ``identity_memo`` factory (hits are counted
        # as the stage's memo hits).  None -> the plain memo above.
        self._norm_lru = None
        # One-slot identity memo for hidden-state digests: the gate, the
        # routed experts, and ffn_norm all key on the same h_att object,
        # which therefore only needs hashing once per block step.
        self._digest_memo: tuple[np.ndarray, bytes] | None = None

    # ---- compute-cache plumbing ----------------------------------------------

    def set_compute_cache(self, cache, scope: str | None) -> None:
        """Attach (or detach, with ``None``) a content-addressed cache.

        ``scope`` namespaces every key — callers pass the model's weights
        fingerprint so in-place weight mutation (quantization) can never
        alias entries from different weight states.
        """
        self.compute_cache = cache
        self.cache_scope = scope
        if cache is None:
            self._key_prefixes = {}
            self._expert_key_prefixes = []
        else:
            self._key_prefixes = {
                stage: cache.key_prefix(scope, self.block_idx, stage)
                for stage in ("attn", "ffn_norm", "gate", "route")
            }
            self._expert_key_prefixes = [
                cache.key_prefix(scope, self.block_idx, "expert", expert_idx)
                for expert_idx in range(self.n_experts)
            ]
        self._norm_memo = {}
        self._digest_memo = None
        memo_factory = getattr(cache, "identity_memo", None)
        self._norm_lru = (
            memo_factory("ffn_norm") if memo_factory is not None else None
        )

    def _arr_digest(self, arr: np.ndarray) -> bytes:
        """Content digest of one array, memoized by object identity."""
        memo = self._digest_memo
        if memo is not None and memo[0] is arr:
            return memo[1]
        digest = self.compute_cache.key(arr)
        self._digest_memo = (arr, digest)
        return digest

    def weight_arrays(self) -> list[np.ndarray]:
        """Every functional weight array of the block, in a fixed order."""
        arrays = [
            self.attn_norm.gain,
            self.attention.wq.weight,
            self.attention.wk.weight,
            self.attention.wv.weight,
            self.attention.wo.weight,
            self.ffn_norm.gain,
            self.router.gate.weight,
        ]
        for expert in self.experts:
            arrays.extend((expert.w1.weight, expert.w2.weight, expert.w3.weight))
        return arrays

    # ---- fine-grained stages -------------------------------------------------

    def attention_part(self, h: np.ndarray, cache: KVCache,
                       positions: np.ndarray) -> np.ndarray:
        """Non-MoE part: pre-norm attention plus residual connection.

        One sequence's :meth:`attention_rows` (a stack of one).
        """
        return self.attention_rows([h], [cache], [positions])[0]

    def attention_rows(self, hs: list, caches: list, positions: list) -> list:
        """Attention plus residual for several sequences, stacked.

        Member ``i`` attends ``hs[i]`` (``(r_i, d)``) over its own KV
        cache ``caches[i]`` at ``positions[i]``.  Members of equal row
        count run attn-norm, the Q/K/V/O projections and RoPE as single
        stacked calls, and the score/softmax/value core once per group
        of equal context length
        (:meth:`~repro.model.attention.GroupedQueryAttention.
        forward_rows`); every member's output, appended keys/values and
        KV digest equal its solo call byte for byte.

        With a compute cache attached, the key covers the KV cache's
        content digest as well as ``h`` and ``positions`` (attention reads
        the whole cached prefix), and the memoized value carries the
        appended keys/values so a hit replays the ``cache.append`` side
        effect exactly.  Lookups run per member and only the misses are
        computed; a KV cache whose digest is ``None`` (truncated history)
        bypasses memoization.
        """
        tensor_cache = self.compute_cache
        if tensor_cache is None:
            return [h_att for h_att, _, _
                    in self._compute_attention(hs, caches, positions)]
        prefix = self._key_prefixes["attn"]
        keys: list = []
        for h, cache, pos in zip(hs, caches, positions):
            kv_digest = cache.content_digest
            keys.append(None if kv_digest is None else tensor_cache.key(
                prefix, kv_digest, h, np.asarray(pos)
            ))
        values, served = cached_rows(
            tensor_cache, "attn", keys,
            lambda idx: self._compute_attention(
                [hs[i] for i in idx], [caches[i] for i in idx],
                [positions[i] for i in idx],
            ),
        )
        h_atts = []
        for cache, (h_att, k, v), replay in zip(caches, values, served):
            if replay:
                cache.append(k, v)
            h_atts.append(h_att)
        return h_atts

    def _compute_attention(self, hs: list, caches: list,
                           positions: list) -> list:
        """``(h_att, k, v)`` per member, one stacked call per row count."""
        out: list = [None] * len(hs)
        for idx in row_groups(hs):
            h = stack([hs[i] for i in idx])
            attn_out, k, v = self.attention.forward_rows(
                self.attn_norm(h), [caches[i] for i in idx],
                [positions[i] for i in idx],
            )
            h_att = h + self.residual_scale * attn_out
            for i, member in zip(idx, zip(h_att, k, v)):
                out[i] = member
        return out

    def ffn_normed(self, h_att: np.ndarray) -> np.ndarray:
        """``ffn_norm`` of the post-attention states, computed once.

        One array's :meth:`ffn_normed_rows`.
        """
        return self.ffn_normed_rows([np.atleast_2d(h_att)])[0]

    def ffn_normed_rows(self, h_atts: list) -> list:
        """``ffn_norm`` of several ``(r, d)`` post-attention arrays.

        The normalization is shared by the gate and every routed expert
        (previously recomputed per consumer — 3x per token at top-2); an
        identity memo makes repeat calls on the same arrays free, and
        the rest normalize in stacked calls.  Without a compute cache
        the memo holds the arrays of the last call that computed: a
        gathered round's gate call normalizes every member at once and
        its expert calls then find them all.  With a cache attached the
        memo is a bounded LRU from the cache's ``identity_memo``
        factory, in front of per-array content lookups.
        """
        lru = self._norm_lru
        if lru is None:
            memo = self._norm_memo
            hits = []
            for h_att in h_atts:
                entry = memo.get(id(h_att))
                if entry is None or entry[0] is not h_att:
                    break
                hits.append(entry[1])
            else:
                return hits
            normed = stack_rows(self.ffn_norm, h_atts)
            self._norm_memo = {
                id(h_att): (h_att, rows)
                for h_att, rows in zip(h_atts, normed)
            }
            return normed
        out = [lru.get(h_att) for h_att in h_atts]
        missing = [i for i, normed in enumerate(out) if normed is None]
        if missing:
            computed, _ = cached_rows(
                self.compute_cache, "ffn_norm",
                self._h_att_keys("ffn_norm", [h_atts[i] for i in missing]),
                lambda idx: stack_rows(
                    self.ffn_norm, [h_atts[missing[j]] for j in idx]
                ),
            )
            for i, normed in zip(missing, computed):
                out[i] = lru.put(h_atts[i], normed)
        return out

    def _h_att_keys(self, stage: str, h_atts: list) -> list:
        """Per-array cache keys of a stage keyed on post-attention states
        alone."""
        prefix = self._key_prefixes[stage]
        return [self.compute_cache.key(prefix, self._arr_digest(h_att))
                for h_att in h_atts]

    def gate_logits(self, h_att: np.ndarray) -> np.ndarray:
        """Router logits on the (normalized) post-attention hidden states."""
        return self.gate_logits_rows([np.atleast_2d(h_att)])[0]

    def gate_logits_rows(self, h_atts: list) -> list:
        """Router logits for several ``(r, d)`` post-attention arrays.

        The misses normalize through :meth:`ffn_normed_rows` and route
        in stacked calls, so after a gathered round's gate call the
        memo holds every member's normed rows for its expert calls (and
        the layer-ahead predictor's next-block rows for pre-calculated
        experts): ``ffn_norm`` runs once per member per block.
        """
        tensor_cache = self.compute_cache
        if tensor_cache is None:
            return stack_rows(self.router.logits, self.ffn_normed_rows(h_atts))
        logits, _ = cached_rows(
            tensor_cache, "gate", self._h_att_keys("gate", h_atts),
            lambda idx: stack_rows(
                self.router.logits,
                self.ffn_normed_rows([h_atts[i] for i in idx]),
            ),
        )
        return logits

    def route_from_logits(self, logits: np.ndarray) -> RoutingDecision:
        """Top-k routing decision from precomputed gate logits.

        The memoized value is the ``(experts, weights)`` pair; the caller's
        logits are re-attached to the returned decision, so hit and miss
        produce identical :class:`RoutingDecision` contents.
        """
        logits = np.atleast_2d(logits)
        tensor_cache = self.compute_cache
        if tensor_cache is None:
            return self.router.route_from_logits(logits)
        key = tensor_cache.key(self._key_prefixes["route"], logits)
        hit = tensor_cache.get(key, "route")
        if hit is None:
            decision = self.router.route_from_logits(logits)
            hit = tensor_cache.put(
                key, "route", (decision.experts, decision.weights)
            )
        experts, weights = hit
        return RoutingDecision(logits=logits, experts=experts, weights=weights)

    def route(self, h_att: np.ndarray) -> RoutingDecision:
        """Top-k routing decision from post-attention hidden states."""
        return self.route_from_logits(self.gate_logits(h_att))

    def expert_forward(self, expert_idx: int, h_att: np.ndarray,
                       token_idx: np.ndarray | None = None) -> np.ndarray:
        """Run one expert FFN on (a subset of) post-attention states.

        ``token_idx`` selects rows of ``h_att`` *after* normalization —
        RMSNorm is row-wise, so ``ffn_norm(h_att)[token_idx]`` is bitwise
        equal to ``ffn_norm(h_att[token_idx])`` while letting all experts
        of a block share one normalization (and one cache entry for it).
        A ``token_idx`` covering every row in order is canonicalized to
        ``None`` so both spellings share a cache key.  One segment's
        :meth:`expert_forward_rows`.
        """
        return self.expert_forward_rows(expert_idx, [(h_att, token_idx)])[0]

    def expert_forward_rows(self, expert_idx: int, segments) -> list:
        """Gathered expert execution over per-sequence row segments.

        ``segments`` is a sequence of ``(h_att, token_idx)`` pairs, one
        per participating sequence, each exactly as
        :meth:`expert_forward` would receive it.  Functionally this is
        the batched ``[sum(rows), d]`` expert matmul of one gathered
        cross-sequence kernel; segments of equal row count run as one
        stacked call, which (unlike a ``vstack``) keeps each sequence's
        outputs and compute-cache keys byte-identical to its solo call.
        With a cache attached the lookups run per segment and only the
        misses are computed.  The simulated *cost* of the single
        gathered kernel is charged by the engine's cost model, not here.

        Returns one output array per segment, in segment order.
        """
        canonical = []
        for h_att, token_idx in segments:
            h_att = np.atleast_2d(h_att)
            if token_idx is not None:
                token_idx = np.asarray(token_idx, dtype=np.int64)
                if token_idx.shape == (h_att.shape[0],) and np.array_equal(
                    token_idx, np.arange(h_att.shape[0])
                ):
                    token_idx = None
            canonical.append((h_att, token_idx))
        tensor_cache = self.compute_cache
        if tensor_cache is None:
            return self._compute_experts(expert_idx, canonical)
        # The key carries the input's row count explicitly (on top of the
        # shape already folded into the array digest) so a gathered
        # ``[batch*k, d]`` input can never alias a ``[k, d]``
        # single-sequence digest.
        prefix = self._expert_key_prefixes[expert_idx]
        keys = [
            tensor_cache.key(prefix, int(h_att.shape[0]),
                             self._arr_digest(h_att), token_idx)
            for h_att, token_idx in canonical
        ]
        outputs, _ = cached_rows(
            tensor_cache, "expert", keys,
            lambda idx: self._compute_experts(
                expert_idx, [canonical[i] for i in idx]
            ),
        )
        return outputs

    def _compute_experts(self, expert_idx: int, segments: list) -> list:
        """One expert over ``(h_att, token_idx)`` segments, stacked by
        row count over their shared normalization."""
        normed = self.ffn_normed_rows([h_att for h_att, _ in segments])
        return stack_rows(self.experts[expert_idx], [
            rows if token_idx is None else rows[token_idx]
            for rows, (_, token_idx) in zip(normed, segments)
        ])

    def combine(self, h_att: np.ndarray, expert_outputs: np.ndarray,
                weights: np.ndarray) -> np.ndarray:
        """Mix expert outputs and apply the FFN residual connection.

        Args:
            h_att: post-attention hidden states ``(n_tokens, d)``.
            expert_outputs: stacked outputs ``(n_tokens, k, d)``.
            weights: mixing weights ``(n_tokens, k)``.
        """
        mixed = np.einsum("tk,tkd->td", weights, expert_outputs)
        return h_att + self.residual_scale * mixed

    # ---- convenience ---------------------------------------------------------

    def forward(self, h: np.ndarray, cache: KVCache,
                positions: np.ndarray) -> tuple[np.ndarray, RoutingDecision]:
        """Reference (exact) forward pass through the whole block.

        Experts dispatch grouped per expert id by
        :func:`~repro.model.gating.group_by_expert` — the same order and
        row selections as the engines' routed block work — so the
        reference path produces (and, with a cache attached, shares) the
        exact tensors the scheduled paths do.
        """
        h_att = self.attention_part(h, cache, positions)
        decision = self.route(h_att)
        outs = np.empty(
            (h_att.shape[0], self.top_k, self.sim.d_model), dtype=np.float32
        )
        groups = group_by_expert(decision.experts.tolist())
        for expert_idx, (token_idx, slots) in groups.items():
            out = self.expert_forward(expert_idx, h_att, token_idx=token_idx)
            for t, slot, row in slots:
                outs[t, slot] = out[row]
        return self.combine(h_att, outs, decision.weights), decision

    @property
    def n_params(self) -> int:
        """Number of parameters in the block."""
        return (
            self.attn_norm.n_params
            + self.attention.n_params
            + self.ffn_norm.n_params
            + self.router.n_params
            + sum(e.n_params for e in self.experts)
        )
