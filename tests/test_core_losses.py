"""Tests for the UHSCM hashing losses (Eq. 7–11) — values and gradients."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.losses import (
    cib_contrastive_loss,
    cib_objective,
    modified_contrastive_loss,
    pairwise_cosine,
    quantization_loss,
    similarity_preserving_loss,
    uhscm_objective,
)
from repro.errors import ShapeError
from tests.conftest import numerical_gradient
from tests.loss_oracles import (
    reference_cib_contrastive_loss,
    reference_modified_contrastive_loss,
)


@pytest.fixture()
def batch(rng):
    z = rng.normal(size=(6, 8))
    q = rng.random((6, 6))
    q = (q + q.T) / 2
    np.fill_diagonal(q, 1.0)
    return z, q


class TestSimilarityPreservingLoss:
    def test_zero_when_codes_match_q(self):
        z = np.array([[1.0, 1.0], [1.0, 1.0], [-1.0, -1.0]]) * 3.0
        q = np.array([[1.0, 1.0, -1.0], [1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]])
        loss, grad = similarity_preserving_loss(z, q)
        assert loss == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(grad, 0.0, atol=1e-12)

    def test_gradient_matches_numerical(self, batch):
        z, q = batch
        _, grad = similarity_preserving_loss(z, q)
        num = numerical_gradient(
            lambda zz: similarity_preserving_loss(zz, q)[0], z.copy()
        )
        np.testing.assert_allclose(grad, num, atol=1e-8)

    def test_shape_validation(self, batch):
        z, _ = batch
        with pytest.raises(ShapeError):
            similarity_preserving_loss(z, np.zeros((2, 2)))


class TestModifiedContrastiveLoss:
    def test_gradient_matches_numerical(self, batch):
        z, q = batch
        _, grad = modified_contrastive_loss(z, q, lam=0.5, gamma=0.3)
        num = numerical_gradient(
            lambda zz: modified_contrastive_loss(zz, q, lam=0.5, gamma=0.3)[0],
            z.copy(),
        )
        np.testing.assert_allclose(grad, num, atol=1e-8)

    def test_no_positives_gives_zero(self, batch):
        z, q = batch
        loss, grad = modified_contrastive_loss(z, q, lam=2.0, gamma=0.3)
        assert loss == 0.0
        np.testing.assert_array_equal(grad, 0.0)

    def test_pulls_positives_together(self, rng):
        """Minimizing L_c must increase the positive pair's similarity —
        this is the direction the paper's printed Eq. 8 gets backwards."""
        z = rng.normal(size=(4, 16))
        q = np.eye(4)
        q[0, 1] = q[1, 0] = 1.0  # only positive pair: (0, 1)
        before = pairwise_cosine(z)[0][0, 1]
        for _ in range(50):
            _, grad = modified_contrastive_loss(z, q, lam=0.9, gamma=0.3)
            z = z - 0.5 * grad
        after = pairwise_cosine(z)[0][0, 1]
        assert after > before

    def test_gamma_validation(self, batch):
        z, q = batch
        with pytest.raises(ShapeError):
            modified_contrastive_loss(z, q, lam=0.5, gamma=0.0)


class TestQuantizationLoss:
    def test_zero_for_binary_codes(self):
        z = np.array([[1.0, -1.0], [-1.0, 1.0]])
        loss, grad = quantization_loss(z)
        assert loss == 0.0
        np.testing.assert_array_equal(grad, 0.0)

    def test_value(self):
        z = np.array([[0.5, -0.5]])
        loss, _ = quantization_loss(z)
        assert loss == pytest.approx(0.5)

    def test_gradient(self, rng):
        z = rng.normal(size=(3, 4)) + 0.2  # keep away from sign flips
        _, grad = quantization_loss(z)
        num = numerical_gradient(lambda zz: quantization_loss(zz)[0], z.copy())
        np.testing.assert_allclose(grad, num, atol=1e-7)


class TestCibContrastive:
    def test_gradients_match_numerical(self, rng):
        z1 = rng.normal(size=(4, 6))
        z2 = rng.normal(size=(4, 6))
        _, g1, g2 = cib_contrastive_loss(z1, z2, gamma=0.4)
        n1 = numerical_gradient(
            lambda z: cib_contrastive_loss(z, z2, gamma=0.4)[0], z1.copy()
        )
        n2 = numerical_gradient(
            lambda z: cib_contrastive_loss(z1, z, gamma=0.4)[0], z2.copy()
        )
        np.testing.assert_allclose(g1, n1, atol=1e-8)
        np.testing.assert_allclose(g2, n2, atol=1e-8)

    def test_view_shape_mismatch(self, rng):
        with pytest.raises(ShapeError):
            cib_contrastive_loss(rng.normal(size=(3, 4)),
                                 rng.normal(size=(4, 4)), gamma=0.3)


def _random_batch(rng, t, k):
    z = rng.normal(size=(t, k))
    q = rng.random((t, t))
    q = (q + q.T) / 2
    np.fill_diagonal(q, 1.0)
    return z, q


class TestVectorizedEquivalence:
    """The loop-free losses must reproduce the seed loop oracles exactly
    (<= 1e-9 in value and gradient, float64) — including the degenerate
    rows the loops handled by skipping."""

    @pytest.mark.parametrize("t,k,lam", [(2, 4, 0.5), (6, 8, 0.5),
                                         (33, 16, 0.3), (128, 64, 0.8)])
    def test_mcl_matches_reference(self, rng, t, k, lam):
        z, q = _random_batch(rng, t, k)
        loss, grad = modified_contrastive_loss(z, q, lam=lam, gamma=0.2)
        ref_loss, ref_grad = reference_modified_contrastive_loss(
            z, q, lam=lam, gamma=0.2
        )
        assert loss == pytest.approx(ref_loss, abs=1e-9)
        np.testing.assert_allclose(grad, ref_grad, atol=1e-9, rtol=0)

    def test_mcl_mixed_empty_positive_rows(self, rng):
        """Rows with no positives must contribute nothing, exactly like the
        loop's ``continue``."""
        z, q = _random_batch(rng, 8, 6)
        q[0, 1:] = 0.0  # row 0 has no positives at lam=0.5
        q[1:, 0] = 0.0
        loss, grad = modified_contrastive_loss(z, q, lam=0.5, gamma=0.3)
        ref_loss, ref_grad = reference_modified_contrastive_loss(
            z, q, lam=0.5, gamma=0.3
        )
        assert loss == pytest.approx(ref_loss, abs=1e-9)
        np.testing.assert_allclose(grad, ref_grad, atol=1e-9, rtol=0)

    def test_mcl_mixed_empty_negative_rows(self, rng):
        """Rows whose whole batch is positive (empty Φ_i) are skipped."""
        z, q = _random_batch(rng, 8, 6)
        q[0, :] = 0.99  # row 0: everything positive at lam=0.5
        q[:, 0] = 0.99
        q[0, 0] = 1.0
        loss, grad = modified_contrastive_loss(z, q, lam=0.5, gamma=0.3)
        ref_loss, ref_grad = reference_modified_contrastive_loss(
            z, q, lam=0.5, gamma=0.3
        )
        assert loss == pytest.approx(ref_loss, abs=1e-9)
        np.testing.assert_allclose(grad, ref_grad, atol=1e-9, rtol=0)

    def test_mcl_all_rows_inactive(self, rng):
        z, q = _random_batch(rng, 5, 4)
        for lam in (2.0, -1.0):  # no positives anywhere / no negatives
            loss, grad = modified_contrastive_loss(z, q, lam=lam, gamma=0.3)
            ref_loss, ref_grad = reference_modified_contrastive_loss(
                z, q, lam=lam, gamma=0.3
            )
            assert loss == ref_loss == 0.0
            np.testing.assert_array_equal(grad, ref_grad)

    @pytest.mark.parametrize("t,k", [(1, 3), (4, 6), (64, 32)])
    def test_cib_matches_reference(self, rng, t, k):
        z1 = rng.normal(size=(t, k))
        z2 = rng.normal(size=(t, k))
        loss, g1, g2 = cib_contrastive_loss(z1, z2, gamma=0.4)
        ref_loss, r1, r2 = reference_cib_contrastive_loss(z1, z2, gamma=0.4)
        assert loss == pytest.approx(ref_loss, abs=1e-9)
        np.testing.assert_allclose(g1, r1, atol=1e-9, rtol=0)
        np.testing.assert_allclose(g2, r2, atol=1e-9, rtol=0)

    def test_fused_objective_matches_composition(self, rng):
        z, q = _random_batch(rng, 10, 8)
        breakdown, grad = uhscm_objective(z, q, alpha=0.3, beta=0.01,
                                          gamma=0.25, lam=0.5)
        ls, gs = similarity_preserving_loss(z, q)
        lc, gc = reference_modified_contrastive_loss(z, q, lam=0.5,
                                                      gamma=0.25)
        lq, gq = quantization_loss(z)
        assert breakdown.total == pytest.approx(ls + 0.3 * lc + 0.01 * lq,
                                                abs=1e-9)
        np.testing.assert_allclose(grad, gs + 0.3 * gc + 0.01 * gq,
                                   atol=1e-9, rtol=0)

    def test_float32_stays_float32(self, rng):
        z, q = _random_batch(rng, 8, 6)
        z32, q32 = z.astype(np.float32), q.astype(np.float32)
        _, grad = modified_contrastive_loss(z32, q32, lam=0.5, gamma=0.3)
        assert grad.dtype == np.float32
        _, g1, g2 = cib_contrastive_loss(z32, z32 + 1, gamma=0.3)
        assert g1.dtype == g2.dtype == np.float32
        breakdown, grad = uhscm_objective(z32, q32, alpha=0.2, beta=0.001,
                                          gamma=0.2, lam=0.5)
        assert grad.dtype == np.float32
        assert np.isfinite(breakdown.total)

    def test_float32_close_to_float64(self, rng):
        z, q = _random_batch(rng, 16, 8)
        loss64, grad64 = modified_contrastive_loss(z, q, lam=0.5, gamma=0.3)
        loss32, grad32 = modified_contrastive_loss(
            z.astype(np.float32), q.astype(np.float32), lam=0.5, gamma=0.3
        )
        assert loss32 == pytest.approx(loss64, rel=1e-4)
        np.testing.assert_allclose(grad32, grad64, atol=1e-4)


class TestCibObjective:
    def test_matches_composition(self, rng):
        z1 = rng.normal(size=(6, 8))
        z2 = rng.normal(size=(6, 8))
        _, q = _random_batch(rng, 6, 8)
        breakdown, g1, g2 = cib_objective(z1, z2, q, alpha=0.2, beta=0.001,
                                          gamma=0.4)
        jc, c1, c2 = reference_cib_contrastive_loss(z1, z2, gamma=0.4)
        ls, gs = similarity_preserving_loss(z1, q)
        lq, gq = quantization_loss(z1)
        assert breakdown.total == pytest.approx(
            ls + 0.2 * jc + 0.001 * lq, abs=1e-9
        )
        np.testing.assert_allclose(g1, gs + 0.001 * gq + 0.2 * c1,
                                   atol=1e-9, rtol=0)
        np.testing.assert_allclose(g2, 0.2 * c2, atol=1e-9, rtol=0)

    def test_gradients_match_numerical(self, rng):
        z1 = rng.normal(size=(4, 6))
        z2 = rng.normal(size=(4, 6))
        _, q = _random_batch(rng, 4, 6)

        def total(za, zb):
            return cib_objective(za, zb, q, alpha=0.3, beta=0.01,
                                 gamma=0.4)[0].total

        _, g1, g2 = cib_objective(z1, z2, q, alpha=0.3, beta=0.01, gamma=0.4)
        n1 = numerical_gradient(lambda za: total(za, z2), z1.copy())
        n2 = numerical_gradient(lambda zb: total(z1, zb), z2.copy())
        np.testing.assert_allclose(g1, n1, atol=1e-7)
        np.testing.assert_allclose(g2, n2, atol=1e-7)

    def test_alpha_zero_drops_contrastive(self, rng):
        z1 = rng.normal(size=(5, 4))
        z2 = rng.normal(size=(5, 4))
        _, q = _random_batch(rng, 5, 4)
        breakdown, g1, g2 = cib_objective(z1, z2, q, alpha=0.0, beta=0.001,
                                          gamma=0.4)
        assert breakdown.contrastive == 0.0
        np.testing.assert_array_equal(g2, 0.0)


class TestObjective:
    def test_combines_terms(self, batch):
        z, q = batch
        breakdown, grad = uhscm_objective(z, q, alpha=0.2, beta=0.001,
                                          gamma=0.2, lam=0.6)
        expected = (
            breakdown.similarity
            + 0.2 * breakdown.contrastive
            + 0.001 * breakdown.quantization
        )
        assert breakdown.total == pytest.approx(expected)
        assert grad.shape == z.shape

    def test_alpha_zero_skips_contrastive(self, batch):
        z, q = batch
        breakdown, _ = uhscm_objective(z, q, alpha=0.0, beta=0.001,
                                       gamma=0.2, lam=0.6)
        assert breakdown.contrastive == 0.0

    def test_full_gradient(self, batch):
        z, q = batch
        _, grad = uhscm_objective(z, q, alpha=0.3, beta=0.01, gamma=0.25,
                                  lam=0.5)
        num = numerical_gradient(
            lambda zz: uhscm_objective(zz, q, alpha=0.3, beta=0.01,
                                       gamma=0.25, lam=0.5)[0].total,
            z.copy(),
        )
        np.testing.assert_allclose(grad, num, atol=1e-8)

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_property_loss_finite_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        z = rng.normal(size=(5, 6)) * 3
        q = np.clip(rng.random((5, 5)), 0, 1)
        np.fill_diagonal(q, 1.0)
        breakdown, grad = uhscm_objective(z, q, alpha=0.2, beta=0.001,
                                          gamma=0.2, lam=0.7)
        assert np.isfinite(breakdown.total)
        assert breakdown.similarity >= 0
        assert breakdown.quantization >= 0
        assert np.isfinite(grad).all()
