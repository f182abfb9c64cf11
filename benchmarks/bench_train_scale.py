"""Train-scale benchmark: the vectorized training engine vs the seed loops.

Acceptance gate for the training-engine refactor, at the paper's batch size
(128) and code length (64 bits):

1. the vectorized contrastive losses must match the seed loop
   implementations (the ``reference_*`` oracles in ``tests/loss_oracles.py``)
   to <= 1e-9 in value and gradient in float64, both modes;
2. the new float64 engine's per-epoch loss trajectory must match a faithful
   replica of the seed trainer (loop losses, per-batch ``np.ix_`` gather,
   allocating SGD update, 3-forward CIB step) to tight tolerance;
3. float32 training must reach a final total loss within 1e-3 relative of
   float64;
4. end-to-end ``UHSCMTrainer.fit`` in the engine's throughput configuration
   (float32) must beat the seed trainer by >= 3x across both contrastive
   modes combined.

The seed classes below are frozen copies of the original implementation
(PR 1 state) and must not be "improved".
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

from repro.config import TrainConfig, UHSCMConfig
from repro.core.hashing_network import HashingNetwork
from repro.core.losses import (
    _EPS,
    _cosine_grad_to_z,
    _normalize_rows,
    cib_contrastive_loss,
    modified_contrastive_loss,
    quantization_loss,
    similarity_preserving_loss,
)
from repro.core.trainer import UHSCMTrainer
from repro.nn.optim import Optimizer
from repro.utils.rng import as_generator

from conftest import assert_speedup, timed

# The loop oracles live with the test suite, not in the package.
sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from tests.loss_oracles import (  # noqa: E402
    reference_cib_contrastive_loss,
    reference_modified_contrastive_loss,
)

N_TRAIN = 512
FEATURE_DIM = 128
HIDDEN_DIMS = (64,)
N_BITS = 64
BATCH_SIZE = 128
EPOCHS = 3
REPEATS = 3
REQUIRED_SPEEDUP = 3.0
LOSS_TOL = 1e-9  # vectorized vs reference, float64
F32_REL_TOL = 1e-3  # float32 vs float64 final total loss


# -- faithful replica of the seed training engine (frozen for comparison) ------


def _seed_mcl_loss(z, q, lam, gamma):
    """The seed's per-row loop over Eq. 8 (per-anchor flatnonzero + fancy
    indexing), exactly as it shipped."""
    z = np.asarray(z, dtype=np.float64)
    t = z.shape[0]
    q = np.asarray(q, dtype=np.float64)
    z_hat, norms = _normalize_rows(z)
    h = z_hat @ z_hat.T
    off_diag = ~np.eye(t, dtype=bool)
    pos_mask = (q >= lam) & off_diag
    neg_mask = (q < lam) & off_diag
    exp_h = np.exp((h - h.max()) / gamma)
    neg_sum = (exp_h * neg_mask).sum(axis=1)
    loss = 0.0
    grad_h = np.zeros_like(h)
    active = 0
    for i in range(t):
        pos_idx = np.flatnonzero(pos_mask[i])
        if pos_idx.size == 0 or neg_sum[i] <= 0:
            continue
        active += 1
        a = exp_h[i, pos_idx]
        denom = a + neg_sum[i]
        r = a / denom
        loss += float(-np.log(np.maximum(r, _EPS)).mean())
        w = 1.0 / pos_idx.size
        grad_h[i, pos_idx] += w * (r - 1.0) / gamma
        neg_idx = np.flatnonzero(neg_mask[i])
        grad_h[i, neg_idx] += (w / gamma) * (1.0 / denom).sum() * exp_h[i, neg_idx]
    if active == 0:
        return 0.0, np.zeros_like(z)
    return loss / t, _cosine_grad_to_z(z_hat, norms, grad_h / t)


def _seed_cib_loss(z1, z2, gamma):
    """The seed's double loop over Eq. 10, including the per-anchor
    ``flatnonzero``-over-``arange(2t)`` negatives construction."""
    z1 = np.asarray(z1, dtype=np.float64)
    z2 = np.asarray(z2, dtype=np.float64)
    t = z1.shape[0]
    z = np.concatenate([z1, z2], axis=0)
    z_hat, norms = _normalize_rows(z)
    h = z_hat @ z_hat.T
    exp_h = np.exp((h - h.max()) / gamma)
    np.fill_diagonal(exp_h, 0.0)
    loss = 0.0
    grad_h = np.zeros_like(h)
    for i in range(t):
        j = i + t
        for anchor, positive in ((i, j), (j, i)):
            denom = exp_h[anchor].sum()
            r = exp_h[anchor, positive] / np.maximum(denom, _EPS)
            loss += float(-np.log(np.maximum(r, _EPS)))
            grad_h[anchor, positive] += (r - 1.0) / gamma
            others = np.flatnonzero(
                (np.arange(2 * t) != anchor) & (np.arange(2 * t) != positive)
            )
            grad_h[anchor, others] += exp_h[anchor, others] / denom / gamma
    loss /= 2 * t
    grad_h /= 2 * t
    grad_z = _cosine_grad_to_z(z_hat, norms, grad_h)
    return loss, grad_z[:t], grad_z[t:]


class _SeedSGD(Optimizer):
    """The seed SGD step: fresh ``grad + wd*w`` temporary every parameter."""

    def __init__(self, parameters, learning_rate, momentum, weight_decay):
        super().__init__(parameters, learning_rate)
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity = [np.zeros_like(p.data) for p in self.parameters]

    def step(self):
        for p, v in zip(self.parameters, self._velocity):
            grad = p.grad
            if self.weight_decay > 0 and p.weight_decay_enabled:
                grad = grad + self.weight_decay * p.data
            v *= self.momentum
            v += grad
            p.data -= self.learning_rate * v


class _SeedTrainer:
    """The seed ``UHSCMTrainer.fit`` loop: float64 only, per-batch
    ``np.ix_`` similarity gather, per-term cosine forward/backward in the
    objective, and a third forward in the CIB step."""

    AUGMENT_STD = UHSCMTrainer.AUGMENT_STD

    def __init__(self, network, config, contrastive):
        self.network = network
        self.config = config
        self.contrastive = contrastive
        self.rng = as_generator(config.seed)
        train = config.train
        self.optimizer = _SeedSGD(
            network.parameters(), train.learning_rate, train.momentum,
            train.weight_decay,
        )

    def fit(self, inputs, similarity, epochs):
        inputs = np.asarray(inputs, dtype=np.float64)
        n = inputs.shape[0]
        batch_size = min(self.config.train.batch_size, n)
        totals = []
        self.network.train()
        for _ in range(epochs):
            order = self.rng.permutation(n)
            epoch_totals = []
            for start in range(0, n, batch_size):
                idx = order[start : start + batch_size]
                if idx.size < 2:
                    continue
                q_batch = similarity[np.ix_(idx, idx)]
                if self.contrastive == "mcl":
                    epoch_totals.append(self._step_mcl(inputs[idx], q_batch))
                else:
                    epoch_totals.append(self._step_cib(inputs[idx], q_batch))
            totals.append(float(np.mean(epoch_totals)))
        return totals

    def _step_mcl(self, batch, q_batch):
        cfg = self.config
        z = self.network.forward(batch)
        ls, grad_s = similarity_preserving_loss(z, q_batch)
        lc, grad_c = _seed_mcl_loss(z, q_batch, cfg.lam, cfg.gamma)
        lq, grad_q = quantization_loss(z)
        self.optimizer.zero_grad()
        self.network.backward(grad_s + cfg.alpha * grad_c + cfg.beta * grad_q)
        self.optimizer.step()
        return ls + cfg.alpha * lc + cfg.beta * lq

    def _step_cib(self, batch, q_batch):
        cfg = self.config
        view1 = batch + self.rng.normal(size=batch.shape) * self.AUGMENT_STD
        view2 = batch + self.rng.normal(size=batch.shape) * self.AUGMENT_STD
        z1 = self.network.forward(view1)
        ls, grad_s = similarity_preserving_loss(z1, q_batch)
        lq, grad_q = quantization_loss(z1)
        z2 = self.network.forward(view2)
        jc, grad_c1, grad_c2 = _seed_cib_loss(z1, z2, gamma=cfg.gamma)
        self.optimizer.zero_grad()
        self.network.backward(cfg.alpha * grad_c2)
        self.network.forward(view1)  # the redundant third forward
        self.network.backward(grad_s + cfg.beta * grad_q + cfg.alpha * grad_c1)
        self.optimizer.step()
        return ls + cfg.alpha * jc + cfg.beta * lq


# -- benchmark -----------------------------------------------------------------


def _make_data(seed=3):
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(N_TRAIN, FEATURE_DIM))
    labels = rng.integers(0, 10, size=N_TRAIN)
    q = (labels[:, None] == labels[None, :]).astype(np.float64)
    return features, q

def _make_network(dtype):
    return HashingNetwork(
        N_BITS, mode="feature", feature_extractor=lambda x: x,
        feature_dim=FEATURE_DIM, hidden_dims=HIDDEN_DIMS, rng=0, dtype=dtype,
    )


def _make_config(dtype):
    return UHSCMConfig(
        n_bits=N_BITS,
        train=TrainConfig(batch_size=BATCH_SIZE, epochs=EPOCHS, dtype=dtype),
    )


def _check_loss_equivalence():
    """Vectorized losses vs the seed loop oracles: <= 1e-9, value + grad."""
    rng = np.random.default_rng(17)
    z = rng.normal(size=(BATCH_SIZE, N_BITS))
    q = rng.random((BATCH_SIZE, BATCH_SIZE))
    q = (q + q.T) / 2
    np.fill_diagonal(q, 1.0)
    value, grad = modified_contrastive_loss(z, q, lam=0.6, gamma=0.2)
    ref_value, ref_grad = reference_modified_contrastive_loss(
        z, q, lam=0.6, gamma=0.2
    )
    assert abs(value - ref_value) <= LOSS_TOL
    np.testing.assert_allclose(grad, ref_grad, atol=LOSS_TOL, rtol=0)

    z2 = rng.normal(size=(BATCH_SIZE, N_BITS))
    value, g1, g2 = cib_contrastive_loss(z, z2, gamma=0.2)
    ref_value, r1, r2 = reference_cib_contrastive_loss(z, z2, gamma=0.2)
    assert abs(value - ref_value) <= LOSS_TOL
    np.testing.assert_allclose(g1, r1, atol=LOSS_TOL, rtol=0)
    np.testing.assert_allclose(g2, r2, atol=LOSS_TOL, rtol=0)


def test_bench_train_scale(results_dir):
    _check_loss_equivalence()
    features, q = _make_data()

    lines = [
        f"training engine scale: n={N_TRAIN} dim={FEATURE_DIM} "
        f"hidden={HIDDEN_DIMS} bits={N_BITS} batch={BATCH_SIZE} "
        f"epochs={EPOCHS} best-of-{REPEATS}",
    ]
    seed_total = 0.0
    new_total = 0.0
    for mode in ("mcl", "cib"):
        t_seed, seed_history = timed(
            lambda m=mode: _SeedTrainer(
                _make_network("float64"), _make_config("float64"), m
            ).fit(features, q, EPOCHS),
            repeats=REPEATS,
        )
        t_f64, hist64 = timed(
            lambda m=mode: UHSCMTrainer(
                _make_network("float64"), _make_config("float64"), contrastive=m
            ).fit(features, q, epochs=EPOCHS),
            repeats=REPEATS,
        )
        t_f32, hist32 = timed(
            lambda m=mode: UHSCMTrainer(
                _make_network("float32"), _make_config("float32"), contrastive=m
            ).fit(features, q, epochs=EPOCHS),
            repeats=REPEATS,
        )

        # The float64 engine walks the seed's loss trajectory.
        np.testing.assert_allclose(
            hist64.total, seed_history, rtol=1e-9, atol=1e-12
        )
        # float32 lands on the same optimum to ~1e-3 relative.
        f32_rel = abs(hist32.total[-1] - hist64.total[-1]) / abs(hist64.total[-1])
        assert f32_rel <= F32_REL_TOL, (
            f"{mode}: float32 final loss off by {f32_rel:.2e} relative"
        )

        n_steps = sum(hist64.batches)
        lines += [
            f"{mode} seed loop : {t_seed * 1e3:9.1f} ms "
            f"({t_seed / n_steps * 1e3:6.2f} ms/step)",
            f"{mode} vec f64   : {t_f64 * 1e3:9.1f} ms "
            f"({t_f64 / n_steps * 1e3:6.2f} ms/step, "
            f"{t_seed / t_f64:.1f}x, trajectory matches seed <= 1e-9)",
            f"{mode} vec f32   : {t_f32 * 1e3:9.1f} ms "
            f"({t_f32 / n_steps * 1e3:6.2f} ms/step, {t_seed / t_f32:.1f}x, "
            f"final loss within {f32_rel:.1e} of f64)",
        ]
        seed_total += t_seed
        new_total += t_f32

    lines.append(
        "losses   : vectorized == reference oracles <= 1e-9 (value + grad)"
    )
    assert_speedup(
        results_dir,
        "train_scale",
        seed_total,
        new_total,
        REQUIRED_SPEEDUP,
        lines=lines,
    )
