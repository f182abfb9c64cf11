"""UHSCM hashing losses (paper §3.4, Eq. 7–11) with analytic gradients.

Every function takes the batch's relaxed codes ``z`` (the tanh outputs of
the hashing network, shape (t, k)) plus the batch sub-block of the semantic
similarity matrix ``q`` and returns ``(loss_value, grad_wrt_z)`` so the
trainer can feed the gradient straight into ``network.backward``.

Notation: ``ĥ_ij = cos(z_i, z_j)`` is the relaxed Hamming similarity of
Eq. 11; the binary ``b_i = sign(z_i)``.

One deliberate correction to the paper's formulas: Eq. 8 (and the quoted
CIB loss Eq. 10) are printed *without* the ``-log`` of a standard InfoNCE
objective — minimizing them exactly as printed would push positive pairs
*apart*.  The surrounding text ("the Hamming similarity between b_i and b_j
will be larger than ...") describes the standard contrastive behaviour, so
this implementation uses the conventional ``-log`` form.  DESIGN.md records
the discrepancy.

The contrastive losses are computed as loop-free masked-matrix expressions
(one log-sum-exp style denominator per anchor row, gradients assembled with
one scatter per term).  The original per-row loop implementations live in
``tests/loss_oracles.py`` as equivalence oracles for the test suite and the
train-scale benchmark.

Dtype policy: inputs keep their floating dtype (float32 or float64; anything
else is promoted to float64), so a float32 training run stays float32 through
the loss and its gradient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ShapeError

_EPS = 1e-12


def _check_z(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z)
    if z.dtype not in (np.float32, np.float64):
        z = z.astype(np.float64)
    if z.ndim != 2:
        raise ShapeError(f"codes must be (t, k), got {z.shape}")
    return z


def _check_q(q: np.ndarray, t: int, dtype: np.dtype) -> np.ndarray:
    q = np.asarray(q, dtype=dtype)
    if q.shape != (t, t):
        raise ShapeError(f"q must be ({t}, {t}), got {q.shape}")
    return q


def _normalize_rows(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    norms = np.maximum(np.linalg.norm(z, axis=1, keepdims=True), _EPS)
    return z / norms, norms


def pairwise_cosine(z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Relaxed Hamming similarity ``ĥ = Ẑ Ẑᵀ`` plus the pieces its gradient
    needs; returns ``(h, z_hat, norms)``.  Shared by the deep baselines."""
    z = _check_z(z)
    z_hat, norms = _normalize_rows(z)
    return z_hat @ z_hat.T, z_hat, norms


def cosine_backward(
    z_hat: np.ndarray, norms: np.ndarray, grad_h: np.ndarray
) -> np.ndarray:
    """Public alias of the ``dL/dĥ -> dL/dz`` backward used by every loss."""
    return _cosine_grad_to_z(z_hat, norms, grad_h)


def _cosine_grad_to_z(
    z_hat: np.ndarray, norms: np.ndarray, grad_h: np.ndarray
) -> np.ndarray:
    """Backprop ``dL/dĥ`` (t, t) through ``ĥ = Ẑ Ẑᵀ`` and row normalization.

    ``dL/dẐ = (G + Gᵀ) Ẑ`` and the normalization Jacobian projects out the
    radial component: ``dL/dz_i = (g_i - (g_i·ẑ_i) ẑ_i) / ||z_i||``.
    """
    g_zhat = (grad_h + grad_h.T) @ z_hat
    radial = (g_zhat * z_hat).sum(axis=1, keepdims=True)
    return (g_zhat - radial * z_hat) / norms


def _similarity_terms(h: np.ndarray, q: np.ndarray) -> tuple[float, np.ndarray]:
    """Eq. 7 value and ``dL_s/dĥ`` given a precomputed similarity matrix."""
    t = h.shape[0]
    diff = h - q
    loss = float((diff**2).mean())
    return loss, 2.0 * diff / (t * t)


def similarity_preserving_loss(
    z: np.ndarray, q: np.ndarray
) -> tuple[float, np.ndarray]:
    """Eq. 7 (relaxed per Eq. 11): ``L_s = (1/t²) Σ_ij (ĥ_ij − q_ij)²``."""
    z = _check_z(z)
    t = z.shape[0]
    q = _check_q(q, t, z.dtype)
    z_hat, norms = _normalize_rows(z)
    loss, grad_h = _similarity_terms(z_hat @ z_hat.T, q)
    return loss, _cosine_grad_to_z(z_hat, norms, grad_h)


#: Read-only off-diagonal masks keyed by batch size (batch sizes repeat every
#: step, so the eye allocation is paid once per size instead of per call).
_OFF_DIAG_CACHE: dict[int, np.ndarray] = {}


def _off_diagonal(t: int) -> np.ndarray:
    mask = _OFF_DIAG_CACHE.get(t)
    if mask is None:
        mask = ~np.eye(t, dtype=bool)
        mask.flags.writeable = False
        if len(_OFF_DIAG_CACHE) > 64:  # unbounded batch sizes stay bounded
            _OFF_DIAG_CACHE.clear()
        _OFF_DIAG_CACHE[t] = mask
    return mask


def _contrastive_masks(
    q: np.ndarray, lam: float
) -> tuple[np.ndarray, np.ndarray]:
    """Positive/negative batch masks Ψ/Φ of Eq. 8 (both exclude the diagonal)."""
    off_diag = _off_diagonal(q.shape[0])
    return (q >= lam) & off_diag, (q < lam) & off_diag


def modified_contrastive_loss(
    z: np.ndarray,
    q: np.ndarray,
    lam: float,
    gamma: float,
) -> tuple[float, np.ndarray]:
    """Eq. 8 (−log form): similarity-mined contrastive regularizer ``L_c``.

    Positives of image i are Ψ_i = {j ≠ i | q_ij >= λ}; negatives are the
    rest of the batch Φ_i.  For each positive pair:

        ℓ_ij = −log [ e^{ĥ_ij/γ} / (e^{ĥ_ij/γ} + Σ_{l∈Φ_i} e^{ĥ_il/γ}) ]

    and ``L_c`` averages ℓ over positives (1/|Ψ_i|) and images (1/t).
    Images with empty Ψ_i or empty Φ_i contribute nothing.

    Loop-free formulation: with ``E = exp(ĥ/γ)`` (max-shifted) and
    ``S_i = Σ_{l∈Φ_i} E_il``, every per-pair ratio is one entry of the
    masked matrix ``R = E / (E + S)``, so the loss and both gradient terms
    reduce to masked row-sums over R — one scatter back into grad_h per term.
    """
    z = _check_z(z)
    t = z.shape[0]
    q = _check_q(q, t, z.dtype)
    if gamma <= 0:
        raise ShapeError(f"gamma must be positive: {gamma}")
    z_hat, norms = _normalize_rows(z)
    loss, grad_h = _mcl_terms(z_hat @ z_hat.T, q, lam, gamma)
    if grad_h is None:
        return 0.0, np.zeros_like(z)
    return loss, _cosine_grad_to_z(z_hat, norms, grad_h)


def _mcl_terms(
    h: np.ndarray, q: np.ndarray, lam: float, gamma: float, weight: float = 1.0
) -> tuple[float, np.ndarray | None]:
    """Eq. 8 value and ``weight · dL_c/dĥ`` given a precomputed similarity
    matrix (the weight is folded into the per-row scale so callers combining
    loss terms pay no extra full-matrix pass).

    Returns ``(0.0, None)`` when no image has both positives and negatives.
    """
    t = h.shape[0]
    pos_mask, neg_mask = _contrastive_masks(q, lam)
    # exp((ĥ − max ĥ)/γ) built in one scratch array; the shared shift
    # cancels in every ratio.
    exp_h = h * (1.0 / gamma)
    exp_h -= exp_h.max()
    np.exp(exp_h, out=exp_h)
    neg_sum = (exp_h * neg_mask).sum(axis=1)  # Σ_{l∈Φ_i} e^{ĥ_il/γ}
    pos_count = pos_mask.sum(axis=1)
    active = np.flatnonzero((pos_count > 0) & (neg_sum > 0))
    if active.size == 0:
        return 0.0, None

    if active.size == t:  # the common case: skip the whole-matrix gathers
        exp_a, pos_a, neg_a, act_neg_sum = exp_h, pos_mask, neg_mask, neg_sum
        inv_psi = 1.0 / pos_count
    else:
        exp_a = exp_h[active]  # (m, t) rows with both positives and negatives
        pos_a = pos_mask[active]
        neg_a = neg_mask[active]
        act_neg_sum = neg_sum[active]
        inv_psi = 1.0 / pos_count[active]  # 1/|Ψ_i| averaging weights
    # int division promoted to float64; stay in the working dtype.
    inv_psi = inv_psi.astype(h.dtype, copy=False)
    denom = exp_a + act_neg_sum[:, None]  # > 0 on every active row
    r = exp_a / denom

    row_loss = (-np.log(np.maximum(r, _EPS)) * pos_a).sum(axis=1)
    loss = float((row_loss * inv_psi).sum()) / t

    # d(−log r)/dĥ_ij = (r − 1)/γ for the positive j;
    # d(−log r)/dĥ_il = e^{ĥ_il/γ}/denom/γ summed over positives for each l;
    # the 1/t average and the caller's term weight ride along in w.
    w = inv_psi[:, None] * (weight / (gamma * t))
    grad_rows = np.where(pos_a, w * (r - 1.0), 0.0)
    inv_denom_sum = ((1.0 / denom) * pos_a).sum(axis=1, keepdims=True)
    grad_rows += np.where(neg_a, w * inv_denom_sum * exp_a, 0.0)

    if active.size == t:
        return loss, grad_rows
    grad_h = np.zeros_like(h)
    grad_h[active] = grad_rows
    return loss, grad_h


def quantization_loss(z: np.ndarray) -> tuple[float, np.ndarray]:
    """Eq. 11's β-term: ``(1/t) Σ_i ||z_i − b_i||²`` with ``b_i = sign(z_i)``."""
    z = _check_z(z)
    t = z.shape[0]
    one = z.dtype.type(1.0)
    diff = z - np.where(z > 0, one, -one)  # b_i = sign(z_i), in dtype
    loss = float((diff**2).sum() / t)
    return loss, 2.0 * diff / t


def _cib_setup(
    z1: np.ndarray, z2: np.ndarray, gamma: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Shared validation + similarity pieces for both CIB implementations.

    Returns ``(z_hat, norms, h, exp_h)`` over the stacked (2t, k) views,
    with the diagonal of ``exp_h`` zeroed (a code is never its own negative).
    """
    z1 = _check_z(z1)
    z2 = _check_z(z2)
    if z1.shape != z2.shape:
        raise ShapeError(f"view shapes differ: {z1.shape} vs {z2.shape}")
    if gamma <= 0:
        raise ShapeError(f"gamma must be positive: {gamma}")
    z = np.concatenate([z1, z2], axis=0)  # (2t, k)
    z_hat, norms = _normalize_rows(z)
    h = z_hat @ z_hat.T  # (2t, 2t)
    exp_h = h * (1.0 / gamma)
    exp_h -= exp_h.max()
    np.exp(exp_h, out=exp_h)
    np.fill_diagonal(exp_h, 0.0)
    return z_hat, norms, h, exp_h


def cib_contrastive_loss(
    z1: np.ndarray,
    z2: np.ndarray,
    gamma: float,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Eq. 10 (−log form): CIB's view-based contrastive loss ``J_c``.

    ``z1``/``z2`` are codes of two augmented views of the same batch.  The
    positive of view-1 code i is view-2 code i; negatives are all other
    codes of both views.  Used by the ``UHSCM_CL`` ablation (Table 2 row 14)
    and the CIB baseline.  Returns ``(loss, grad_z1, grad_z2)``.

    Loop-free formulation: with the diagonal of ``E = exp(ĥ/γ)`` zeroed,
    every anchor row is a softmax cross-entropy against its partner column
    ``p(i) = (i + t) mod 2t``, so ``grad_ĥ = P/γ`` with the positive column
    overwritten by ``(r − 1)/γ`` — a single scatter.
    """
    z_hat, norms, h, exp_h = _cib_setup(z1, z2, gamma)
    t = h.shape[0] // 2
    loss, grad_h = _cib_terms(exp_h, gamma)
    grad_z = _cosine_grad_to_z(z_hat, norms, grad_h)
    return loss, grad_z[:t], grad_z[t:]


def _cib_terms(
    exp_h: np.ndarray, gamma: float, weight: float = 1.0
) -> tuple[float, np.ndarray]:
    """Eq. 10 value and ``weight · dJ_c/dĥ`` from the zero-diagonal
    ``exp(ĥ/γ)`` (the weight rides in the shared scale, costing nothing)."""
    t = exp_h.shape[0] // 2
    rows = np.arange(2 * t)
    partner = np.concatenate([rows[t:], rows[:t]])  # (view1_i <-> view2_i)

    denom = np.maximum(exp_h.sum(axis=1), _EPS)  # (2t,)
    r = exp_h[rows, partner] / denom
    loss = float(-np.log(np.maximum(r, _EPS)).sum()) / (2 * t)

    scale = weight / (gamma * 2 * t)
    # One divide: E / (denom/scale) == (E/denom)·scale, diagonal stays 0.
    grad_h = exp_h / (denom * (gamma * 2 * t / weight))[:, None]  # negatives
    grad_h[rows, partner] = (r - 1.0) * scale  # positive-column scatter
    return loss, grad_h


@dataclass(frozen=True)
class LossBreakdown:
    """Per-term values of the Eq. 11 objective for one batch."""

    total: float
    similarity: float
    contrastive: float
    quantization: float


def uhscm_objective(
    z: np.ndarray,
    q: np.ndarray,
    alpha: float,
    beta: float,
    gamma: float,
    lam: float,
) -> tuple[LossBreakdown, np.ndarray]:
    """Full Eq. 11: ``L = L_s + β·L_quant + α·L_c``; returns grad wrt z.

    Fused: the cosine similarity matrix is built once and ``dL/dĥ`` of the
    similarity and contrastive terms are combined before a single backward
    through the normalization — the seed ran the whole cosine forward and
    backward once per term.
    """
    z = _check_z(z)
    t = z.shape[0]
    q = _check_q(q, t, z.dtype)
    if gamma <= 0:
        raise ShapeError(f"gamma must be positive: {gamma}")
    z_hat, norms = _normalize_rows(z)
    h = z_hat @ z_hat.T

    ls, grad_h = _similarity_terms(h, q)
    lc = 0.0
    if alpha > 0:
        lc, grad_h_c = _mcl_terms(h, q, lam, gamma, weight=alpha)
        if grad_h_c is not None:
            grad_h += grad_h_c
    lq, grad_q = quantization_loss(z)
    total = ls + alpha * lc + beta * lq
    grad = _cosine_grad_to_z(z_hat, norms, grad_h) + beta * grad_q
    return (
        LossBreakdown(
            total=total, similarity=ls, contrastive=lc, quantization=lq
        ),
        grad,
    )


def cib_objective(
    z1: np.ndarray,
    z2: np.ndarray,
    q: np.ndarray,
    alpha: float,
    beta: float,
    gamma: float,
) -> tuple[LossBreakdown, np.ndarray, np.ndarray]:
    """Fused objective of the ``UHSCM_CL`` ablation step:
    ``L_s(z1) + β·L_quant(z1) + α·J_c(z1, z2)``.

    The (2t, 2t) view similarity matrix already contains the (t, t) matrix
    the Eq. 7 term needs as its top-left block, so one cosine forward and
    one normalization backward serve both losses.  Returns
    ``(breakdown, grad_z1, grad_z2)`` with the α/β weights applied.
    """
    z_hat, norms, h, exp_h = _cib_setup(z1, z2, gamma)
    t = h.shape[0] // 2
    q = _check_q(q, t, h.dtype)

    if alpha > 0:
        jc, grad_h = _cib_terms(exp_h, gamma, weight=alpha)
    else:  # mirror uhscm_objective: a zero-weight term is skipped entirely
        jc, grad_h = 0.0, np.zeros_like(h)
    ls, grad_h_s = _similarity_terms(h[:t, :t], q)
    grad_h[:t, :t] += grad_h_s
    grad_z = _cosine_grad_to_z(z_hat, norms, grad_h)

    lq, grad_q = quantization_loss(np.asarray(z1))
    grad_z1 = grad_z[:t] + beta * grad_q
    breakdown = LossBreakdown(
        total=ls + alpha * jc + beta * lq,
        similarity=ls,
        contrastive=jc,
        quantization=lq,
    )
    return breakdown, grad_z1, grad_z[t:]
