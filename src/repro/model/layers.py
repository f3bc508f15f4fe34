"""Elementary neural-network layers for the functional numpy model.

Everything here operates on float32 numpy arrays with shape conventions
``(n_tokens, d)`` for token-major activations.  No autograd is needed:
the reproduction only runs inference.
"""

from __future__ import annotations

import numpy as np


def silu(x: np.ndarray) -> np.ndarray:
    """SiLU (swish) activation: ``x * sigmoid(x)``.

    For large-magnitude negative inputs ``exp(-x)`` overflows float32 to
    ``inf``; the quotient is still the correct limit (``-x / inf == -0.0``),
    so the intermediate overflow warning is suppressed rather than the
    math changed.
    """
    with np.errstate(over="ignore"):
        return x / (1.0 + np.exp(-x))


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax along ``axis``.

    The ufunc ``reduce`` calls are what ``np.max``/``np.sum`` dispatch
    to, minus their Python wrappers (the values are identical).
    """
    shifted = x - np.maximum.reduce(x, axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / np.add.reduce(exp, axis=axis, keepdims=True)


def log_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable log-softmax along ``axis``."""
    shifted = x - np.maximum.reduce(x, axis=axis, keepdims=True)
    return shifted - np.log(
        np.add.reduce(np.exp(shifted), axis=axis, keepdims=True)
    )


class Linear:
    """Bias-free linear layer ``y = x @ W.T`` with shape ``(d_out, d_in)``."""

    def __init__(self, d_in: int, d_out: int, rng: np.random.Generator,
                 scale: float | None = None) -> None:
        if scale is None:
            scale = 1.0 / np.sqrt(d_in)
        self.weight = rng.standard_normal((d_out, d_in)).astype(np.float32) * scale
        self.d_in = d_in
        self.d_out = d_out

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return x @ self.weight.T

    @property
    def n_params(self) -> int:
        """Number of parameters in the layer."""
        return self.weight.size


class RMSNorm:
    """Root-mean-square layer normalization with a learned gain."""

    def __init__(self, d: int, eps: float = 1e-6) -> None:
        self.gain = np.ones(d, dtype=np.float32)
        self.eps = eps

    def __call__(self, x: np.ndarray) -> np.ndarray:
        # ``np.mean`` spelled as its reduce-then-divide, minus the wrapper.
        mean_sq = np.add.reduce(np.square(x), axis=-1, keepdims=True)
        mean_sq /= x.shape[-1]
        mean_sq += self.eps
        return (x / np.sqrt(mean_sq, out=mean_sq)) * self.gain

    @property
    def n_params(self) -> int:
        """Number of parameters in the layer."""
        return self.gain.size
