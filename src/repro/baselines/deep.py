"""Shared infrastructure for the deep unsupervised hashing baselines.

Each deep baseline trains an MLP hash head (the same topology UHSCM uses)
over the frozen pretrained backbone features, with its own self-supervision
signal.  :class:`DeepHasherBase` owns the network, the SGD loop, and batched
encoding; subclasses implement ``_prepare(features)`` (precompute their
guidance, e.g. a similarity matrix) and ``_step(batch_idx, batch)``
(one gradient step returning the loss value).
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import BaseHasher
from repro.core.losses import cosine_backward, pairwise_cosine
from repro.errors import ShapeError
from repro.nn.optim import SGD
from repro.nn.vgg import build_feature_hash_net


def masked_pair_loss(
    z: np.ndarray, target: np.ndarray, mask: np.ndarray
) -> tuple[float, np.ndarray]:
    """L2 loss between relaxed Hamming similarity and ``target`` on masked
    pairs; returns ``(loss, grad_wrt_z)``.

    This is the workhorse of SSDH / MLS3RDUH-style methods: ``target`` holds
    the constructed semantic structure and ``mask`` selects confident pairs.
    """
    h, z_hat, norms = pairwise_cosine(z)
    if target.shape != h.shape or mask.shape != h.shape:
        raise ShapeError(
            f"target/mask must be {h.shape}, got {target.shape} / {mask.shape}"
        )
    mask = mask.astype(np.float64)
    n_active = max(mask.sum(), 1.0)
    diff = (h - target) * mask
    loss = float((diff**2).sum() / n_active)
    grad_h = 2.0 * diff / n_active
    return loss, cosine_backward(z_hat, norms, grad_h)


class DeepHasherBase(BaseHasher):
    """Template for feature-head deep baselines.

    ``feature_extractor`` supplies the *network inputs* (the trainable
    backbone path); ``guidance_extractor`` supplies the features the method
    builds its self-supervision from (the paper's pretrained VGG19 fc7
    features).  When omitted, guidance falls back to the input features.
    """

    def __init__(
        self,
        *args,
        guidance_extractor=None,
        epochs: int = 60,
        batch_size: int = 128,
        learning_rate: float = 0.006,
        momentum: float = 0.9,
        weight_decay: float = 1e-5,
        hidden_dims: tuple[int, ...] = (256,),
        **kwargs,
    ) -> None:
        super().__init__(*args, **kwargs)
        if epochs <= 0 or batch_size <= 0:
            raise ValueError("epochs and batch_size must be positive")
        self.guidance_extractor = guidance_extractor
        self.epochs = epochs
        self.batch_size = batch_size
        self.learning_rate = learning_rate
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.hidden_dims = hidden_dims
        self.net = None
        self.loss_history: list[float] = []

    def _guidance_features(self, features: np.ndarray) -> np.ndarray:
        """Features the method's self-supervision is computed from."""
        if self.guidance_extractor is None:
            return features
        return self.guidance_extractor(self._train_images)

    # -- subclass hooks ------------------------------------------------------

    def _prepare(self, features: np.ndarray) -> None:
        """Precompute guidance (similarity structure, neighbours, ...)."""

    def _step(self, batch_idx: np.ndarray, batch: np.ndarray) -> float:
        """One optimization step; must call the optimizer itself."""
        raise NotImplementedError

    # -- template ------------------------------------------------------------

    def _fit_features(self, features: np.ndarray) -> None:
        self.net = build_feature_hash_net(
            self.n_bits,
            features.shape[1],
            hidden_dims=self.hidden_dims,
            rng=self.rng,
        )
        self.optimizer = SGD(
            self.net.parameters(),
            learning_rate=self.learning_rate,
            momentum=self.momentum,
            weight_decay=self.weight_decay,
        )
        self._prepare(features)
        n = features.shape[0]
        batch_size = min(self.batch_size, n)
        self.loss_history = []
        self.net.train(True)
        for _ in range(self.epochs):
            order = self.rng.permutation(n)
            epoch_losses = []
            for start in range(0, n, batch_size):
                idx = order[start : start + batch_size]
                if idx.size < 2:
                    continue
                epoch_losses.append(self._step(idx, features[idx]))
            self.loss_history.append(float(np.mean(epoch_losses)))

    def _encode_features(self, features: np.ndarray) -> np.ndarray:
        return self.net.infer(features)
