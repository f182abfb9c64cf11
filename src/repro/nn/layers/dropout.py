"""Inverted dropout."""

from __future__ import annotations

import numpy as np

from repro.nn.module import Module
from repro.utils.rng import as_generator


class Dropout(Module):
    """Zero activations with probability ``p`` during training, rescaled so
    the expected activation is unchanged; identity in eval mode."""

    _CACHE_ATTRS = ("_mask",)

    def __init__(self, p: float = 0.5, rng: int | np.random.Generator | None = None):
        super().__init__()
        if not 0 <= p < 1:
            raise ValueError(f"dropout probability must be in [0, 1): {p}")
        self.p = p
        self._rng = as_generator(rng)
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=self.dtype)
        if not self.training or self.p == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.p
        self._mask = (self._rng.random(x.shape) < keep).astype(self.dtype) / keep
        return x * self._mask

    def infer(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=self.dtype)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad = np.asarray(grad_output, dtype=self.dtype)
        if self._mask is None:
            return grad
        return grad * self._mask
