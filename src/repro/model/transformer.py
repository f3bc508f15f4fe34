"""The functional decoder-only MoE transformer.

This is a real (if scaled-down) numpy transformer: embeddings, rotary
grouped-query attention with KV caches, top-k expert routing, SwiGLU
experts, RMSNorm, and a weight-tied LM head.  Inference engines drive the
per-block stages directly; :meth:`MoETransformer.forward_exact` gives the
reference end-to-end path used as the accuracy oracle.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.model.attention import KVCache
from repro.model.config import ModelProfile
from repro.model.gating import RoutingDecision
from repro.model.layers import RMSNorm, log_softmax
from repro.model.moe_block import MoEBlock
from repro.model.rows import cached_rows, stack_rows


class MoETransformer:
    """Decoder-only mixture-of-experts language model."""

    def __init__(self, profile: ModelProfile,
                 embedding: np.ndarray | None = None) -> None:
        self.profile = profile
        sim = profile.sim
        rng = np.random.default_rng(profile.seed)
        if embedding is None:
            embedding = rng.standard_normal(
                (sim.vocab_size, sim.d_model)
            ).astype(np.float32)
        if embedding.shape != (sim.vocab_size, sim.d_model):
            raise ValueError("embedding shape must be (vocab_size, d_model)")
        self.embedding = embedding.astype(np.float32)
        self.blocks = [
            MoEBlock(sim, profile.n_experts, profile.top_k, rng, block_idx=i)
            for i in range(profile.n_blocks)
        ]
        self.final_norm = RMSNorm(sim.d_model)
        # Content-addressed compute cache (duck-typed repro.perf.TensorCache);
        # None means every stage computes directly.
        self.compute_cache = None
        self._weights_fingerprint: str | None = None
        # ``(fingerprint, "lm_head")`` digested once by the attached cache.
        self._lm_head_key_prefix = None

    # ---- compute-cache plumbing ----------------------------------------------

    def weights_fingerprint(self) -> str:
        """Hex digest over every functional weight array of the model.

        Used as the compute-cache key namespace, so two models (or one
        model before/after in-place weight mutation) can never alias
        cache entries.  Computed lazily and memoized;
        :meth:`invalidate_weights_fingerprint` forces a re-hash.
        """
        if self._weights_fingerprint is None:
            digest = hashlib.blake2b(digest_size=16)
            digest.update(np.ascontiguousarray(self.embedding).tobytes())
            for block in self.blocks:
                for array in block.weight_arrays():
                    digest.update(np.ascontiguousarray(array).tobytes())
            digest.update(np.ascontiguousarray(self.final_norm.gain).tobytes())
            self._weights_fingerprint = digest.hexdigest()
        return self._weights_fingerprint

    def attach_compute_cache(self, cache) -> None:
        """Route every block stage and the LM head through ``cache``.

        ``cache`` is duck-typed (``key``/``key_prefix``/``get``/``put`` —
        normally a ``repro.perf.TensorCache``) so the model layer never
        imports the perf package.  Keys are namespaced by
        :meth:`weights_fingerprint`, folded into per-stage key prefixes
        once here rather than re-digested by every lookup.
        """
        scope = self.weights_fingerprint()
        self.compute_cache = cache
        self._lm_head_key_prefix = cache.key_prefix(scope, "lm_head")
        for block in self.blocks:
            block.set_compute_cache(cache, scope)

    def detach_compute_cache(self) -> None:
        """Restore direct (uncached) computation on every stage."""
        self.compute_cache = None
        self._lm_head_key_prefix = None
        for block in self.blocks:
            block.set_compute_cache(None, None)

    def invalidate_weights_fingerprint(self) -> None:
        """Re-hash the weights after an in-place mutation (quantization).

        If a compute cache is attached it is re-attached under the new
        fingerprint, so stale entries keyed on the old weights can never
        be returned for the mutated model.
        """
        self._weights_fingerprint = None
        if self.compute_cache is not None:
            self.attach_compute_cache(self.compute_cache)

    # ---- component access ----------------------------------------------------

    @property
    def n_blocks(self) -> int:
        """Number of transformer blocks."""
        return len(self.blocks)

    @property
    def n_experts(self) -> int:
        """Experts per block."""
        return self.profile.n_experts

    @property
    def top_k(self) -> int:
        """Experts activated per token."""
        return self.profile.top_k

    def new_caches(self) -> list[KVCache]:
        """Fresh per-block KV caches for a new sequence."""
        return [block.attention.new_cache() for block in self.blocks]

    def embed(self, tokens: np.ndarray) -> np.ndarray:
        """Token embeddings, shape ``(n_tokens, d_model)``."""
        tokens = np.asarray(tokens, dtype=np.int64)
        if tokens.size and (tokens.min() < 0
                            or tokens.max() >= self.embedding.shape[0]):
            raise ValueError("token id out of vocabulary range")
        return self.embedding[tokens]

    def lm_logits(self, h: np.ndarray) -> np.ndarray:
        """Weight-tied LM head logits from final hidden states."""
        return self._lm_head_rows([np.atleast_2d(h)])[0]

    def lm_logits_rows(self, rows) -> list:
        """Gathered LM head: one logits row per hidden row.

        ``rows`` is a sequence of ``(d,)`` last-token hidden states, one
        per in-flight sequence.  Functionally this is the batched
        ``[batch, d]`` LM-head matmul of a gathered decode step, run as
        one stacked call, which keeps every sequence's logits (and
        compute-cache keys) identical to its solo :meth:`lm_logits`
        call, so sampling cannot diverge under batching.  The gathered
        kernel's simulated cost is charged by the engine's cost model.
        """
        return [
            logits[0] for logits in
            self._lm_head_rows([row.reshape(1, -1) for row in rows])
        ]

    def _lm_head_rows(self, hs: list) -> list:
        """Final norm + LM head of several ``(r, d)`` arrays, stacked
        over the cache misses."""
        cache = self.compute_cache
        if cache is None:
            return stack_rows(self._lm_head, hs)
        logits, _ = cached_rows(
            cache, "lm_head",
            [cache.key(self._lm_head_key_prefix, h) for h in hs],
            lambda idx: stack_rows(self._lm_head, [hs[i] for i in idx]),
        )
        return logits

    def _lm_head(self, h: np.ndarray) -> np.ndarray:
        return self.final_norm(h) @ self.embedding.T

    def lm_log_probs(self, h: np.ndarray) -> np.ndarray:
        """Log-probabilities over the vocabulary."""
        return log_softmax(self.lm_logits(h), axis=-1)

    # ---- reference forward ----------------------------------------------------

    def forward_exact(
        self,
        tokens: np.ndarray,
        caches: list[KVCache] | None = None,
        start_pos: int = 0,
    ) -> tuple[np.ndarray, list[RoutingDecision]]:
        """Exact forward pass over ``tokens``.

        Returns the final-layer hidden states and the per-block routing
        decisions.  If ``caches`` is given the tokens extend those caches
        (decode); otherwise fresh caches are used (single-shot prefill).
        """
        tokens = np.asarray(tokens, dtype=np.int64)
        if caches is None:
            caches = self.new_caches()
        positions = start_pos + np.arange(tokens.shape[0])
        h = self.embed(tokens)
        decisions: list[RoutingDecision] = []
        for block, cache in zip(self.blocks, caches):
            h, decision = block.forward(h, cache, positions)
            decisions.append(decision)
        return h, decisions

    def greedy_generate(self, prompt: np.ndarray,
                        max_new_tokens: int) -> np.ndarray:
        """Reference greedy decoding (exact math, no placement effects)."""
        caches = self.new_caches()
        h, _ = self.forward_exact(np.asarray(prompt), caches)
        generated: list[int] = []
        pos = len(prompt)
        next_token = int(np.argmax(self.lm_logits(h[-1:])[0]))
        for _ in range(max_new_tokens):
            generated.append(next_token)
            h, _ = self.forward_exact(
                np.asarray([next_token]), caches, start_pos=pos
            )
            pos += 1
            next_token = int(np.argmax(self.lm_logits(h[-1:])[0]))
        return np.asarray(generated, dtype=np.int64)

    @property
    def n_params(self) -> int:
        """Functional parameter count (not the paper-scale count)."""
        return (
            self.embedding.size
            + sum(block.n_params for block in self.blocks)
            + self.final_norm.n_params
        )
