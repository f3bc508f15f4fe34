"""Grouped-query self-attention with a KV cache for the functional model."""

from __future__ import annotations

import hashlib

import numpy as np

from repro.model.config import SimSpec
from repro.model.layers import Linear, softmax
from repro.model.rope import RotaryEmbedding
from repro.model.rows import stack
from repro.model.serialization import decode_array, encode_array


class KVCache:
    """Append-only key/value cache for one block.

    Stores tensors of shape ``(n_kv_heads, n_cached, head_dim)`` and grows
    geometrically to amortize reallocation during decode.
    """

    def __init__(self, n_kv_heads: int, head_dim: int) -> None:
        self.n_kv_heads = n_kv_heads
        self.head_dim = head_dim
        self._capacity = 64
        self._len = 0
        self._k = np.zeros((n_kv_heads, self._capacity, head_dim), dtype=np.float32)
        self._v = np.zeros((n_kv_heads, self._capacity, head_dim), dtype=np.float32)
        # Rolling digest of everything ever appended, in order — a cheap
        # content address for the cache state (repro.perf memoization).
        self._digest = hashlib.blake2b(digest_size=16)
        self._digest_valid = True
        # Row count of each append, in order: the digest chains over
        # (k, v) pairs *per append call*, so restoring a checkpoint must
        # replay the exact append boundaries to land on the same digest.
        self._chunks: list[int] = []

    def __len__(self) -> int:
        return self._len

    def _grow(self, needed: int) -> None:
        while self._capacity < needed:
            self._capacity *= 2
        k = np.zeros((self.n_kv_heads, self._capacity, self.head_dim), dtype=np.float32)
        v = np.zeros_like(k)
        k[:, : self._len] = self._k[:, : self._len]
        v[:, : self._len] = self._v[:, : self._len]
        self._k, self._v = k, v

    def append(self, k: np.ndarray, v: np.ndarray) -> None:
        """Append ``(n_kv_heads, n_new, head_dim)`` keys and values."""
        n_new = k.shape[1]
        if self._len + n_new > self._capacity:
            self._grow(self._len + n_new)
        self._k[:, self._len : self._len + n_new] = k
        self._v[:, self._len : self._len + n_new] = v
        self._len += n_new
        self._chunks.append(int(n_new))
        if self._digest_valid:
            # hashlib reads the contiguous buffers directly (no copies).
            self._digest.update(np.ascontiguousarray(k))
            self._digest.update(np.ascontiguousarray(v))

    @property
    def keys(self) -> np.ndarray:
        """View of the cached keys, shape ``(n_kv_heads, len, head_dim)``."""
        return self._k[:, : self._len]

    @property
    def values(self) -> np.ndarray:
        """View of the cached values, shape ``(n_kv_heads, len, head_dim)``."""
        return self._v[:, : self._len]

    @property
    def content_digest(self) -> bytes | None:
        """Digest of the append history, or ``None`` once untrackable.

        The digest is chained over every ``append`` in order, so two
        caches hold bitwise-identical content whenever their digests
        match.  After a shrinking :meth:`truncate` the history no longer
        describes the live content and the digest goes permanently
        ``None`` — consumers (the compute cache) must then bypass.
        """
        return self._digest.digest() if self._digest_valid else None

    def truncate(self, length: int) -> None:
        """Drop cached entries beyond ``length`` (used to reset sequences)."""
        if length < 0 or length > self._len:
            raise ValueError("invalid truncation length")
        if length < self._len:
            self._digest_valid = False
        self._len = length

    def to_state_dict(self) -> dict:
        """Serialize the cache for a checkpoint (bitwise round-trip).

        Captures the live content *and* the append-chunk boundaries so
        :meth:`from_state_dict` can replay the appends one chunk at a
        time, reproducing the exact chained content digest — a restored
        cache is indistinguishable from the original to the compute
        cache's content addressing.
        """
        return {
            "n_kv_heads": self.n_kv_heads,
            "head_dim": self.head_dim,
            "k": encode_array(self._k[:, : self._len]),
            "v": encode_array(self._v[:, : self._len]),
            # A truncated cache's chunk history no longer describes its
            # live content (and its digest is dead anyway): store the
            # content as one opaque chunk instead.
            "chunks": (list(self._chunks) if self._digest_valid
                       else [self._len]),
            "digest_valid": self._digest_valid,
        }

    @classmethod
    def from_state_dict(cls, payload: dict) -> "KVCache":
        """Rebuild a cache captured by :meth:`to_state_dict`."""
        cache = cls(int(payload["n_kv_heads"]), int(payload["head_dim"]))
        k = decode_array(payload["k"])
        v = decode_array(payload["v"])
        if not payload["digest_valid"]:
            cache._digest_valid = False
        pos = 0
        for n_new in payload["chunks"]:
            n_new = int(n_new)
            if n_new:
                cache.append(k[:, pos: pos + n_new], v[:, pos: pos + n_new])
            pos += n_new
        if pos != k.shape[1]:
            raise ValueError(
                "KV-cache chunk boundaries do not cover the content: "
                f"chunks sum to {pos}, content holds {k.shape[1]} rows"
            )
        return cache


class GroupedQueryAttention:
    """Multi-head attention with grouped KV heads, RoPE, and causal masking."""

    def __init__(self, sim: SimSpec, rng: np.random.Generator) -> None:
        self.sim = sim
        d = sim.d_model
        kv_dim = sim.n_kv_heads * sim.head_dim
        self.wq = Linear(d, d, rng)
        self.wk = Linear(d, kv_dim, rng)
        self.wv = Linear(d, kv_dim, rng)
        self.wo = Linear(d, d, rng)
        self.rope = RotaryEmbedding(sim.head_dim, sim.rope_base)
        self._group = sim.n_heads // sim.n_kv_heads
        self._scale = np.sqrt(sim.head_dim)

    def new_cache(self) -> KVCache:
        """Create an empty KV cache matching this attention's geometry."""
        return KVCache(self.sim.n_kv_heads, self.sim.head_dim)

    def __call__(self, x: np.ndarray, cache: KVCache,
                 positions: np.ndarray) -> np.ndarray:
        """Attend ``x`` (``(n_new, d_model)``) over the cache plus itself.

        New keys/values are appended to ``cache``.  ``positions`` gives the
        absolute positions of the new tokens; causality is enforced for the
        new tokens relative to each other and everything already cached is
        visible (it precedes them).
        """
        return self.forward_rows(x[None], [cache], [positions])[0][0]

    def forward_rows(
        self, x: np.ndarray, caches: list, positions: list
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Attend a stack of sequences' new rows, each over its own cache.

        Args:
            x: ``(n, n_new, d_model)`` inputs, one sequence per item.
            caches: per-sequence KV caches; each gets its item's new
                keys/values appended.
            positions: per-sequence ascending absolute positions, each of
                length ``n_new``.

        Returns:
            ``(out, k, v)``: outputs ``(n, n_new, d_model)`` and the
            appended keys/values ``(n, n_kv_heads, n_new, head_dim)``,
            which let a compute cache replay the ``append`` on a hit.
            The projections and RoPE run as single stacked calls; the
            score/softmax/value core runs once per group of sequences of
            equal context length (:mod:`repro.model.rows` explains why
            stacking keeps every item byte-identical to its solo call).
        """
        sim = self.sim
        n, n_new, _ = x.shape
        # (n, heads, tokens, head_dim) layout for rope + attention.
        q = self.wq(x).reshape(n, n_new, sim.n_heads, sim.head_dim)
        k = self.wk(x).reshape(n, n_new, sim.n_kv_heads, sim.head_dim)
        v = self.wv(x).reshape(n, n_new, sim.n_kv_heads, sim.head_dim)
        q = np.transpose(q, (0, 2, 1, 3))
        k = np.transpose(k, (0, 2, 1, 3))
        v = np.transpose(v, (0, 2, 1, 3))
        cos, sin = self.rope.tables(
            stack(positions)[:, None, :],
            max(int(pos[-1]) for pos in positions) + 1,
        )
        q = self.rope.rotate(q, cos, sin)
        k = self.rope.rotate(k, cos, sin)

        by_length: dict = {}
        for i, (cache, k_i, v_i) in enumerate(zip(caches, k, v)):
            cache.append(k_i, v_i)
            by_length.setdefault(len(cache), []).append(i)
        if len(by_length) == 1:
            context = self._attend(q, caches)
        else:
            parts = [(idx, self._attend(q[idx], [caches[i] for i in idx]))
                     for idx in by_length.values()]
            first = parts[0][1]
            context = np.empty((n,) + first.shape[1:], dtype=first.dtype)
            for idx, part in parts:
                context[idx] = part
        return self.wo(context.reshape(n, n_new, sim.d_model)), k, v

    def _attend(self, q: np.ndarray, caches: list) -> np.ndarray:
        """Score/softmax/value core of sequences with equal context length.

        ``q`` is ``(m, n_heads, n_new, head_dim)``; each cache already
        holds its sequence's new keys.  Returns the per-head context as
        ``(m, n_new, n_heads, head_dim)``.
        """
        m, n_heads, n_new, head_dim = q.shape
        keys = stack([cache.keys for cache in caches])
        values = stack([cache.values for cache in caches])
        # Grouped-query attention: each KV head serves ``_group`` query
        # heads, broadcast rather than repeated (the per-head matmuls
        # read the very same key/value rows either way).
        q = q.reshape(m, self.sim.n_kv_heads, self._group, n_new, head_dim)
        scores = q @ np.transpose(keys, (0, 1, 3, 2))[:, :, None]
        scores /= self._scale
        if n_new > 1:
            # Causal mask: new token i (absolute n_prev + i) sees keys
            # 0..n_prev+i.  A single new token sees every key.
            n_total = keys.shape[2]
            key_pos = np.arange(n_total)
            query_pos = n_total - n_new + np.arange(n_new)
            scores = np.where(key_pos[None, :] > query_pos[:, None],
                              -1e9, scores)
        weights = softmax(scores, axis=-1)
        out = (weights @ values[:, :, None]).reshape(
            m, n_heads, n_new, head_dim
        )
        return np.transpose(out, (0, 2, 1, 3))

    @property
    def n_params(self) -> int:
        """Number of parameters in the attention projections."""
        return sum(w.n_params for w in (self.wq, self.wk, self.wv, self.wo))
