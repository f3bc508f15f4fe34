"""Grouped-query self-attention with a KV cache for the functional model."""

from __future__ import annotations

import hashlib

import numpy as np

from repro.model.config import SimSpec
from repro.model.layers import Linear, softmax
from repro.model.rope import RotaryEmbedding
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
        out, _, _ = self.forward_with_kv(x, cache, positions)
        return out

    def forward_with_kv(
        self, x: np.ndarray, cache: KVCache, positions: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Like :meth:`__call__`, but also return the appended keys/values.

        The extra ``(k, v)`` (shape ``(n_kv_heads, n_new, head_dim)``) let a
        compute cache replay the exact ``cache.append`` side effect on a hit
        without recomputing the projections.
        """
        sim = self.sim
        n_new = x.shape[0]
        q = self.wq(x).reshape(n_new, sim.n_heads, sim.head_dim)
        k = self.wk(x).reshape(n_new, sim.n_kv_heads, sim.head_dim)
        v = self.wv(x).reshape(n_new, sim.n_kv_heads, sim.head_dim)

        # (heads, tokens, head_dim) layout for rope + attention.
        q = np.transpose(q, (1, 0, 2))
        k = np.transpose(k, (1, 0, 2))
        v = np.transpose(v, (1, 0, 2))
        q = self.rope.apply(q, positions)
        k = self.rope.apply(k, positions)

        n_prev = len(cache)
        cache.append(k, v)
        keys = cache.keys      # (n_kv, n_total, hd)
        values = cache.values  # (n_kv, n_total, hd)
        n_total = keys.shape[1]

        # Expand KV heads to query heads (grouped-query attention).
        keys_q = np.repeat(keys, self._group, axis=0)
        values_q = np.repeat(values, self._group, axis=0)

        scores = q @ np.transpose(keys_q, (0, 2, 1))
        scores /= np.sqrt(sim.head_dim)

        # Causal mask: new token i (absolute n_prev + i) sees keys 0..n_prev+i.
        key_pos = np.arange(n_total)
        query_pos = n_prev + np.arange(n_new)
        mask = key_pos[None, :] > query_pos[:, None]
        scores = np.where(mask[None, :, :], -1e9, scores)

        weights = softmax(scores, axis=-1)
        out = weights @ values_q                       # (n_heads, n_new, hd)
        out = np.transpose(out, (1, 0, 2)).reshape(n_new, sim.d_model)
        return self.wo(out), k, v

    @property
    def n_params(self) -> int:
        """Number of parameters in the attention projections."""
        return sum(w.n_params for w in (self.wq, self.wk, self.wv, self.wo))
