"""Tests for NT-Xent (paper Eq. 1) and cross-entropy losses."""

import numpy as np
import pytest

from repro.nn import functional as F
from repro.nn.losses import NTXentLoss, cross_entropy, nt_xent_loss
from repro.nn.tensor import Tensor

from tests.helpers import assert_grad_close


@pytest.fixture
def rng():
    return np.random.default_rng(11)


def normalized(rng, n, d, dtype=np.float32):
    z = rng.normal(size=(n, d)).astype(dtype)
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def naive_nt_xent(z1, z2, tau):
    """Direct transcription of paper Eq. 1, averaged over all 2N anchors."""
    z = np.concatenate([z1, z2], axis=0).astype(np.float64)
    n = z1.shape[0]
    losses = []
    for i in range(2 * n):
        pos = (i + n) % (2 * n)
        numer = np.exp(z[i] @ z[pos] / tau)
        denom = 0.0
        for j in range(2 * n):
            if j == i:
                continue
            denom += np.exp(z[i] @ z[j] / tau)
        losses.append(-np.log(numer / denom))
    return float(np.mean(losses))


class TestNTXent:
    def test_matches_naive_reference(self, rng):
        z1 = normalized(rng, 5, 8)
        z2 = normalized(rng, 5, 8)
        fast = nt_xent_loss(Tensor(z1), Tensor(z2), temperature=0.5).item()
        slow = naive_nt_xent(z1, z2, 0.5)
        assert fast == pytest.approx(slow, rel=1e-4)

    def test_matches_naive_low_temperature(self, rng):
        z1 = normalized(rng, 4, 6)
        z2 = normalized(rng, 4, 6)
        fast = nt_xent_loss(Tensor(z1), Tensor(z2), temperature=0.07).item()
        slow = naive_nt_xent(z1, z2, 0.07)
        assert fast == pytest.approx(slow, rel=1e-3)

    def test_perfect_alignment_lower_loss(self, rng):
        z1 = normalized(rng, 6, 8)
        noisy = normalized(rng, 6, 8)
        aligned = nt_xent_loss(Tensor(z1), Tensor(z1.copy()), 0.5).item()
        random_pairs = nt_xent_loss(Tensor(z1), Tensor(noisy), 0.5).item()
        assert aligned < random_pairs

    def test_shape_mismatch_raises(self, rng):
        with pytest.raises(ValueError):
            nt_xent_loss(Tensor(normalized(rng, 4, 8)), Tensor(normalized(rng, 5, 8)))

    def test_single_pair_raises(self, rng):
        with pytest.raises(ValueError):
            nt_xent_loss(Tensor(normalized(rng, 1, 8)), Tensor(normalized(rng, 1, 8)))

    def test_bad_temperature_raises(self, rng):
        with pytest.raises(ValueError):
            nt_xent_loss(Tensor(normalized(rng, 4, 8)), Tensor(normalized(rng, 4, 8)), 0.0)

    def test_non_2d_raises(self, rng):
        z = Tensor(rng.normal(size=(2, 3, 4)))
        with pytest.raises(ValueError):
            nt_xent_loss(z, z)

    def test_gradient_vs_finite_difference(self, rng):
        z1 = Tensor(
            rng.normal(size=(3, 4)).astype(np.float64), requires_grad=True
        )
        z2 = Tensor(
            rng.normal(size=(3, 4)).astype(np.float64), requires_grad=True
        )
        assert_grad_close(
            lambda: nt_xent_loss(z1, z2, 0.5), [z1, z2], atol=1e-6, rtol=1e-3
        )

    def test_loss_decreases_under_gradient_descent(self, rng):
        """Directly optimizing raw projections should reduce the loss."""
        z1 = Tensor(rng.normal(size=(6, 8)).astype(np.float32), requires_grad=True)
        z2 = Tensor(rng.normal(size=(6, 8)).astype(np.float32), requires_grad=True)

        def loss_of():
            return nt_xent_loss(
                F.l2_normalize(z1, axis=1), F.l2_normalize(z2, axis=1), 0.5
            )

        first = loss_of().item()
        for _ in range(50):
            z1.zero_grad()
            z2.zero_grad()
            loss = loss_of()
            loss.backward()
            z1.data = z1.data - 0.5 * z1.grad
            z2.data = z2.data - 0.5 * z2.grad
        assert loss_of().item() < first

    def test_callable_wrapper(self, rng):
        z1, z2 = normalized(rng, 4, 8), normalized(rng, 4, 8)
        loss_fn = NTXentLoss(0.5)
        assert loss_fn(Tensor(z1), Tensor(z2)).item() == pytest.approx(
            nt_xent_loss(Tensor(z1), Tensor(z2), 0.5).item()
        )

    def test_wrapper_bad_temperature(self):
        with pytest.raises(ValueError):
            NTXentLoss(-1.0)


class TestPerSampleLoss:
    def test_matches_mean_loss(self, rng):
        """Mean of per-sample losses equals the scalar loss."""
        z1, z2 = normalized(rng, 5, 8), normalized(rng, 5, 8)
        loss_fn = NTXentLoss(0.5)
        per = loss_fn.per_sample(Tensor(z1), Tensor(z2))
        total = loss_fn(Tensor(z1), Tensor(z2)).item()
        assert per.mean() == pytest.approx(total, rel=1e-4)

    def test_aligned_pair_has_lowest_loss(self, rng):
        z1 = normalized(rng, 5, 8)
        z2 = normalized(rng, 5, 8)
        z2[0] = z1[0]  # pair 0 perfectly aligned
        per = NTXentLoss(0.5).per_sample(Tensor(z1), Tensor(z2))
        assert per.argmin() == 0

    def test_shape(self, rng):
        z1, z2 = normalized(rng, 7, 4), normalized(rng, 7, 4)
        assert NTXentLoss(0.5).per_sample(Tensor(z1), Tensor(z2)).shape == (7,)


class TestCrossEntropy:
    def test_matches_manual_computation(self, rng):
        logits = rng.normal(size=(4, 3)).astype(np.float32)
        labels = np.array([0, 2, 1, 1])
        loss = cross_entropy(Tensor(logits), labels).item()
        # manual
        shifted = logits - logits.max(axis=1, keepdims=True)
        log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        expected = -log_probs[np.arange(4), labels].mean()
        assert loss == pytest.approx(expected, rel=1e-5)

    def test_perfect_prediction_near_zero(self):
        logits = np.full((2, 3), -50.0, dtype=np.float32)
        logits[0, 1] = 50.0
        logits[1, 0] = 50.0
        loss = cross_entropy(Tensor(logits), np.array([1, 0])).item()
        assert loss == pytest.approx(0.0, abs=1e-5)

    def test_uniform_prediction_log_c(self):
        logits = np.zeros((5, 4), dtype=np.float32)
        loss = cross_entropy(Tensor(logits), np.zeros(5, dtype=int)).item()
        assert loss == pytest.approx(np.log(4), rel=1e-5)

    def test_batch_mismatch_raises(self, rng):
        with pytest.raises(ValueError):
            cross_entropy(Tensor(rng.normal(size=(3, 2))), np.array([0, 1]))

    def test_non_2d_raises(self, rng):
        with pytest.raises(ValueError):
            cross_entropy(Tensor(rng.normal(size=(3,))), np.array([0, 1, 0]))

    def test_gradient(self, rng):
        logits = Tensor(rng.normal(size=(4, 3)).astype(np.float64), requires_grad=True)
        labels = np.array([0, 2, 1, 1])
        assert_grad_close(lambda: cross_entropy(logits, labels), [logits])
