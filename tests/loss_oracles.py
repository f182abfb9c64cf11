"""Loop oracles for the vectorized contrastive losses in ``repro.core.losses``.

The per-row / per-anchor loop implementations of Eq. 8 and Eq. 10 that the
loop-free losses replaced.  ``tests/test_core_losses.py`` and
``benchmarks/bench_train_scale.py`` compare the production losses against
them; nothing in ``src/`` imports them.
"""

from __future__ import annotations

import numpy as np

from repro.core.losses import (
    _EPS,
    _cib_setup,
    _check_q,
    _check_z,
    _contrastive_masks,
    _cosine_grad_to_z,
    _normalize_rows,
)
from repro.errors import ShapeError


def reference_modified_contrastive_loss(
    z: np.ndarray,
    q: np.ndarray,
    lam: float,
    gamma: float,
) -> tuple[float, np.ndarray]:
    """Original per-row loop implementation of Eq. 8, the equivalence
    oracle for :func:`modified_contrastive_loss` (tests + train benchmark)."""
    z = _check_z(z)
    t = z.shape[0]
    q = _check_q(q, t, z.dtype)
    if gamma <= 0:
        raise ShapeError(f"gamma must be positive: {gamma}")
    z_hat, norms = _normalize_rows(z)
    h = z_hat @ z_hat.T

    pos_mask, neg_mask = _contrastive_masks(q, lam)
    exp_h = np.exp((h - h.max()) / gamma)
    neg_sum = (exp_h * neg_mask).sum(axis=1)

    loss = 0.0
    grad_h = np.zeros_like(h)
    active_images = 0
    for i in range(t):
        pos_idx = np.flatnonzero(pos_mask[i])
        if pos_idx.size == 0 or neg_sum[i] <= 0:
            continue
        active_images += 1
        a = exp_h[i, pos_idx]
        denom = a + neg_sum[i]
        r = a / denom
        loss += float(-np.log(np.maximum(r, _EPS)).mean())
        w = 1.0 / pos_idx.size
        grad_h[i, pos_idx] += w * (r - 1.0) / gamma
        neg_idx = np.flatnonzero(neg_mask[i])
        contrib = (w / gamma) * (1.0 / denom).sum() * exp_h[i, neg_idx]
        grad_h[i, neg_idx] += contrib

    if active_images == 0:
        return 0.0, np.zeros_like(z)
    loss /= t
    grad_h /= t
    return loss, _cosine_grad_to_z(z_hat, norms, grad_h)


def reference_cib_contrastive_loss(
    z1: np.ndarray,
    z2: np.ndarray,
    gamma: float,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Original per-anchor loop implementation of Eq. 10, the equivalence
    oracle for :func:`cib_contrastive_loss`.

    The negatives of each anchor are read from one precomputed boolean mask
    (rather than a per-anchor ``flatnonzero`` over ``arange(2t)``, the O(t²)
    allocation the vectorized rewrite eliminates).
    """
    z_hat, norms, h, exp_h = _cib_setup(z1, z2, gamma)
    t = h.shape[0] // 2

    rows = np.arange(2 * t)
    partner = np.concatenate([rows[t:], rows[:t]])
    others_mask = ~np.eye(2 * t, dtype=bool)
    others_mask[rows, partner] = False  # neither the anchor nor its positive

    loss = 0.0
    grad_h = np.zeros_like(h)
    for i in range(t):
        j = i + t  # the positive pair (view1_i, view2_i)
        for anchor, positive in ((i, j), (j, i)):
            denom = exp_h[anchor].sum()
            r = exp_h[anchor, positive] / np.maximum(denom, _EPS)
            loss += float(-np.log(np.maximum(r, _EPS)))
            grad_h[anchor, positive] += (r - 1.0) / gamma
            others = others_mask[anchor]
            grad_h[anchor, others] += exp_h[anchor, others] / denom / gamma
    loss /= 2 * t
    grad_h /= 2 * t
    grad_z = _cosine_grad_to_z(z_hat, norms, grad_h)
    return loss, grad_z[:t], grad_z[t:]
