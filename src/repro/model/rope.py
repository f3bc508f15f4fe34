"""Rotary positional embeddings (RoPE) for the functional model."""

from __future__ import annotations

import numpy as np


class RotaryEmbedding:
    """Precomputes and applies rotary position embeddings.

    The cache grows lazily as longer positions are requested, so a single
    instance can serve arbitrarily long generations.
    """

    def __init__(self, head_dim: int, base: float = 10000.0) -> None:
        if head_dim % 2 != 0:
            raise ValueError("head_dim must be even for RoPE")
        self.head_dim = head_dim
        self.base = base
        self._cos = np.zeros((0, head_dim // 2), dtype=np.float32)
        self._sin = np.zeros((0, head_dim // 2), dtype=np.float32)
        inv_freq = 1.0 / (base ** (np.arange(0, head_dim, 2) / head_dim))
        self._inv_freq = inv_freq.astype(np.float32)

    def _ensure(self, max_pos: int) -> None:
        if self._cos.shape[0] >= max_pos:
            return
        positions = np.arange(max_pos, dtype=np.float32)
        angles = np.outer(positions, self._inv_freq)
        self._cos = np.cos(angles).astype(np.float32)
        self._sin = np.sin(angles).astype(np.float32)

    def tables(self, positions: np.ndarray,
               stop: int) -> tuple[np.ndarray, np.ndarray]:
        """Cosine and sine rows for ``positions`` (any integer shape).

        ``stop`` bounds the positions from above (``max + 1``): callers
        already know their last position, so no reduction is needed.
        """
        self._ensure(stop)
        return (np.take(self._cos, positions, axis=0),
                np.take(self._sin, positions, axis=0))

    @staticmethod
    def rotate(x: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
        """Rotate ``x`` (``(..., n_tokens, head_dim)``) by ``tables`` rows
        that broadcast against its ``(..., n_tokens, head_dim // 2)``
        halves."""
        x1 = x[..., 0::2]
        x2 = x[..., 1::2]
        out = np.empty_like(x)
        np.subtract(x1 * cos, x2 * sin, out=out[..., 0::2])
        np.add(x1 * sin, x2 * cos, out=out[..., 1::2])
        return out

    def apply(self, x: np.ndarray, positions: np.ndarray) -> np.ndarray:
        """Rotate ``x`` of shape ``(..., n_tokens, head_dim)`` by position.

        ``positions`` is a 1-D integer array of length ``n_tokens`` whose
        last entry is its largest (positions ascend).
        """
        positions = np.asarray(positions)
        return self.rotate(
            x, *self.tables(positions, int(positions[-1]) + 1)
        )
