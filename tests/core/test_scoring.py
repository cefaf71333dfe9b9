"""Tests for the contrast scorer (paper Eq. 2-3)."""

import numpy as np
import pytest

from repro.core.scoring import ContrastScorer, encoder_features
from repro.data.augment import horizontal_flip
from repro.nn.backend import use_backend
from repro.nn.projection import ProjectionHead
from repro.nn.resnet import EVAL_BLOCK, resnet_micro
from repro.nn.tensor import Tensor, no_grad


@pytest.fixture
def rng():
    return np.random.default_rng(77)


@pytest.fixture
def scorer(rng):
    encoder = resnet_micro(rng=rng)
    projector = ProjectionHead(encoder.feature_dim, out_dim=8, rng=rng)
    # establish non-trivial BN running stats
    encoder(Tensor(rng.normal(0.5, 0.2, size=(16, 3, 8, 8)).astype(np.float32)))
    return ContrastScorer(encoder, projector)


@pytest.fixture
def images(rng):
    return rng.uniform(0, 1, size=(10, 3, 8, 8)).astype(np.float32)


class TestScoreProperties:
    def test_scores_in_range(self, scorer, images):
        scores = scorer.score(images)
        assert scores.shape == (10,)
        assert (scores >= 0).all() and (scores <= 2).all()

    def test_deterministic_across_calls(self, scorer, images):
        """The paper's design principle: S(x) must be reproducible."""
        np.testing.assert_array_equal(scorer.score(images), scorer.score(images))

    def test_score_independent_of_batch_composition(self, scorer, images):
        """Eval-mode BN: a sample's score must not depend on batch-mates."""
        full = scorer.score(images)
        alone = scorer.score(images[:1])
        assert full[0] == pytest.approx(alone[0], abs=1e-6)

    def test_symmetric_image_scores_near_zero(self, scorer, rng):
        """A horizontally symmetric image equals its flip view: S ~ 0."""
        half = rng.uniform(0, 1, size=(3, 3, 8, 4)).astype(np.float32)
        symmetric = np.concatenate([half, half[:, :, :, ::-1]], axis=3)
        scores = scorer.score(symmetric)
        np.testing.assert_allclose(scores, 0.0, atol=1e-5)

    def test_empty_batch(self, scorer):
        scores = scorer.score(np.zeros((0, 3, 8, 8), dtype=np.float32))
        assert scores.shape == (0,)

    def test_rejects_non_nchw(self, scorer, rng):
        with pytest.raises(ValueError):
            scorer.score(rng.uniform(size=(3, 8, 8)).astype(np.float32))


class TestModelStateHandling:
    def test_restores_training_mode(self, scorer, images):
        scorer.encoder.train()
        scorer.projector.train()
        scorer.score(images)
        assert scorer.encoder.training
        assert scorer.projector.training

    def test_restores_eval_mode(self, scorer, images):
        scorer.encoder.eval()
        scorer.score(images)
        assert not scorer.encoder.training

    def test_no_gradients_created(self, scorer, images):
        scorer.score(images)
        for p in scorer.encoder.parameters():
            assert p.grad is None

    def test_running_stats_not_perturbed(self, scorer, images):
        bn = scorer.encoder.stem_bn
        before = bn.get_buffer("running_mean").copy()
        scorer.score(images)
        np.testing.assert_array_equal(bn.get_buffer("running_mean"), before)


class TestProjectAndFeatures:
    def test_projections_unit_norm(self, scorer, images):
        z = scorer.project(images)
        np.testing.assert_allclose(
            np.linalg.norm(z, axis=1), np.ones(len(images)), rtol=1e-5
        )

    def test_features_shape(self, scorer, images):
        h = scorer.features(images)
        assert h.shape == (10, scorer.encoder.feature_dim)

    def test_features_rejects_non_nchw(self, scorer, rng):
        with pytest.raises(ValueError):
            scorer.features(rng.uniform(size=(8, 8)).astype(np.float32))

    def test_score_matches_manual_computation(self, scorer, images):
        z = scorer.project(images)
        zf = scorer.project(horizontal_flip(images))
        manual = 1.0 - (z * zf).sum(axis=1)
        np.testing.assert_allclose(scorer.score(images), manual, atol=1e-7)


class TestEncoderFeatures:
    """``encoder_features`` is the one eval feature path: the scorer's
    ``features``, the kNN readout and the linear probe all call it."""

    def test_is_the_scorer_features(self, scorer, images):
        assert encoder_features(scorer.encoder, images).tobytes() == (
            scorer.features(images).tobytes()
        )

    def test_empty_batch_never_reaches_the_encoder(self, scorer):
        def refuse(x):
            raise AssertionError("the encoder ran on an empty batch")

        scorer.encoder.forward = refuse
        h = encoder_features(scorer.encoder, np.zeros((0, 3, 8, 8), np.float32))
        assert h.shape == (0, scorer.encoder.feature_dim)

    @pytest.mark.parametrize("shape", [(8, 8), (3, 8, 8), (1, 1, 3, 8, 8)])
    def test_rejects_non_nchw(self, scorer, shape):
        with pytest.raises(ValueError, match="expected NCHW batch"):
            encoder_features(scorer.encoder, np.zeros(shape, np.float32))

    @pytest.mark.parametrize("training", [True, False])
    def test_restores_the_mode(self, scorer, images, training):
        scorer.encoder.train(training)
        encoder_features(scorer.encoder, images)
        assert scorer.encoder.training is training

    def test_runs_in_eval_mode(self, scorer, images):
        """Train-mode BN would normalize by the batch: one image's
        features would depend on the others."""
        scorer.encoder.train()
        h = encoder_features(scorer.encoder, images)
        with no_grad():
            reference = scorer.encoder.eval()(Tensor(images)).data
        assert h.tobytes() == reference.tobytes()

    def test_leaves_grads_and_running_stats_alone(self, scorer, images):
        bn = scorer.encoder.stem_bn
        before = bn.get_buffer("running_mean").copy()
        encoder_features(scorer.encoder, images)
        np.testing.assert_array_equal(bn.get_buffer("running_mean"), before)
        assert all(p.grad is None for p in scorer.encoder.parameters())

    @pytest.mark.parametrize("backend", ["numpy", "fused"])
    @pytest.mark.parametrize("n", [1, EVAL_BLOCK - 1, EVAL_BLOCK + 1, 2 * EVAL_BLOCK + 1])
    def test_rows_do_not_depend_on_the_batch(self, scorer, backend, n):
        """What the dropped ``max_batch`` chunking promised: a batch's
        features equal those of its pieces.  The numpy chain runs one
        image at a time, so there every byte matches."""
        x = np.random.default_rng(n).uniform(size=(n, 3, 8, 8)).astype(np.float32)
        with use_backend(backend):
            whole = encoder_features(scorer.encoder, x)
            pieces = np.concatenate(
                [encoder_features(scorer.encoder, x[i : i + 7]) for i in range(0, n, 7)]
            )
        assert whole.shape == (n, scorer.encoder.feature_dim)
        if backend == "numpy":
            assert whole.tobytes() == pieces.tobytes()
        else:
            np.testing.assert_allclose(whole, pieces, rtol=1e-5, atol=1e-6)


class TestScoreTracksLearning:
    def test_unlearned_data_scores_higher_than_learned(self):
        """The selection mechanism: after contrastive training on class-A
        data, unseen classes score markedly higher than the trained class
        (so the policy retains them)."""
        from repro.data.augment import SimCLRAugment
        from repro.data.synthetic import SyntheticConfig, SyntheticImageDataset
        from repro.nn.losses import nt_xent_loss
        from repro.nn.optim import Adam

        data_rng = np.random.default_rng(7)
        dataset = SyntheticImageDataset(SyntheticConfig("s", 4, 8))
        encoder = resnet_micro(rng=np.random.default_rng(3))
        projector = ProjectionHead(
            encoder.feature_dim, out_dim=8, rng=np.random.default_rng(3)
        )
        scorer = ContrastScorer(encoder, projector)
        trained = dataset.sample(np.zeros(8, dtype=int), data_rng)
        unseen = dataset.sample(np.array([1] * 8 + [2] * 8), data_rng)

        augment = SimCLRAugment(jitter_strength=0.2)
        optimizer = Adam(
            [*encoder.parameters(), *projector.parameters()], lr=2e-3
        )
        aug_rng = np.random.default_rng(5)
        encoder.train()
        projector.train()
        for _ in range(60):
            v1, v2 = augment(trained, aug_rng)
            z1 = projector(encoder(Tensor(v1)))
            z2 = projector(encoder(Tensor(v2)))
            loss = nt_xent_loss(z1, z2, 0.5)
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()

        trained_score = scorer.score(trained).mean()
        unseen_score = scorer.score(unseen).mean()
        assert unseen_score > 3 * trained_score


class TestVectorizedScorerRegression:
    """The batched scorer must match the per-sample reference spec."""

    def test_batched_matches_loop_on_random_batches(self, scorer, rng):
        for trial in range(3):
            images = rng.uniform(0, 1, size=(9 + trial, 3, 8, 8)).astype(np.float32)
            np.testing.assert_allclose(
                scorer.score(images), scorer.score_loop(images), atol=1e-6
            )

    def test_loop_empty_batch(self, scorer):
        assert scorer.score_loop(np.zeros((0, 3, 8, 8), dtype=np.float32)).shape == (0,)

    def test_score_batches_matches_separate_calls(self, scorer, rng):
        from repro.core.scoring import score_batches

        a = rng.uniform(0, 1, size=(5, 3, 8, 8)).astype(np.float32)
        b = rng.uniform(0, 1, size=(7, 3, 8, 8)).astype(np.float32)
        fused_a, fused_b = score_batches(scorer, [a, b])
        np.testing.assert_allclose(fused_a, scorer.score(a), atol=1e-6)
        np.testing.assert_allclose(fused_b, scorer.score(b), atol=1e-6)

    def test_score_batches_empty_batches(self, scorer, rng):
        from repro.core.scoring import score_batches

        a = rng.uniform(0, 1, size=(4, 3, 8, 8)).astype(np.float32)
        empty = a[:0]
        e1, scores, e2 = score_batches(scorer, [empty, a, empty])
        assert e1.shape == (0,) and e2.shape == (0,)
        np.testing.assert_allclose(scores, scorer.score(a), atol=1e-6)

    def test_score_batches_all_empty(self, scorer):
        from repro.core.scoring import score_batches

        empty = np.zeros((0, 3, 8, 8), dtype=np.float32)
        out = score_batches(scorer, [empty, empty])
        assert [s.shape for s in out] == [(0,), (0,)]


class TestScoreBatchesFallback:
    def test_duck_typed_scorer_without_score_many(self):
        from repro.core.scoring import score_batches

        class Stub:
            calls = 0

            def score(self, images):
                self.calls += 1
                return np.full(images.shape[0], 0.5)

        stub = Stub()
        empty = np.zeros((0, 3, 4, 4), dtype=np.float32)
        batch = np.zeros((3, 3, 4, 4), dtype=np.float32)
        out_empty, out_batch = score_batches(stub, [empty, batch])
        assert out_empty.shape == (0,)
        np.testing.assert_array_equal(out_batch, np.full(3, 0.5))
        assert stub.calls == 1  # the empty batch never reaches the stub

    def test_real_scorer_uses_fused_path(self, scorer, rng):
        from repro.core.scoring import score_batches

        images = rng.uniform(0, 1, size=(6, 3, 8, 8)).astype(np.float32)
        (fused,) = score_batches(scorer, [images])
        np.testing.assert_allclose(fused, scorer.score(images), atol=1e-6)


class TestScoreBatchesFusedFallback:
    """Scorers that only implement ``score`` get a single concatenated
    forward when the batch shapes match."""

    class CountingStub:
        def __init__(self):
            self.calls = []

        def score(self, images):
            self.calls.append(images.shape[0])
            return images.mean(axis=(1, 2, 3)).astype(np.float64)

    def test_matching_shapes_fuse_into_one_forward(self):
        from repro.core.scoring import score_batches

        stub = self.CountingStub()
        rng = np.random.default_rng(3)
        batches = [
            rng.random((4, 3, 4, 4), dtype=np.float32),
            rng.random((2, 3, 4, 4), dtype=np.float32),
            rng.random((3, 3, 4, 4), dtype=np.float32),
        ]
        out = score_batches(stub, batches)
        assert stub.calls == [9]  # one concatenated forward
        assert [o.shape for o in out] == [(4,), (2,), (3,)]
        for images, scores in zip(batches, out):
            np.testing.assert_allclose(
                scores, images.mean(axis=(1, 2, 3)), rtol=1e-6
            )

    def test_mixed_shapes_fall_back_per_batch(self):
        from repro.core.scoring import score_batches

        stub = self.CountingStub()
        rng = np.random.default_rng(4)
        batches = [
            rng.random((4, 3, 4, 4), dtype=np.float32),
            rng.random((2, 3, 8, 8), dtype=np.float32),  # different HW
        ]
        out = score_batches(stub, batches)
        assert stub.calls == [4, 2]
        assert [o.shape for o in out] == [(4,), (2,)]

    def test_empty_batches_interleaved(self):
        from repro.core.scoring import score_batches

        stub = self.CountingStub()
        empty = np.zeros((0, 3, 4, 4), dtype=np.float32)
        batch = np.ones((2, 3, 4, 4), dtype=np.float32)
        out = score_batches(stub, [empty, batch, empty])
        assert [o.shape for o in out] == [(0,), (2,), (0,)]
        assert stub.calls == [2]

    def test_all_empty(self):
        from repro.core.scoring import score_batches

        stub = self.CountingStub()
        empty = np.zeros((0, 3, 4, 4), dtype=np.float32)
        out = score_batches(stub, [empty, empty])
        assert [o.shape for o in out] == [(0,), (0,)]
        assert stub.calls == []


class TestContentHash:
    def test_chw_and_nchw_agree(self, images):
        from repro.core.scoring import content_hash

        assert content_hash(images[0]) == [content_hash(images)[0]]

    def test_distinct_content_distinct_digest(self, images):
        from repro.core.scoring import content_hash

        digests = content_hash(images)
        assert len(set(digests)) == len(digests)

    def test_equal_content_equal_digest(self, images):
        from repro.core.scoring import content_hash

        twice = np.concatenate([images[:1], images[:1].copy()])
        d = content_hash(twice)
        assert d[0] == d[1]

    def test_dtype_and_shape_are_part_of_the_key(self):
        from repro.core.scoring import content_hash

        zeros32 = np.zeros((1, 3, 4, 4), dtype=np.float32)
        zeros64 = np.zeros((1, 3, 4, 4), dtype=np.float64)
        zeros_big = np.zeros((1, 3, 8, 8), dtype=np.float32)
        assert content_hash(zeros32) != content_hash(zeros64)
        assert content_hash(zeros32) != content_hash(zeros_big)

    def test_non_contiguous_input(self, images):
        from repro.core.scoring import content_hash

        flipped = images[:, :, :, ::-1]  # a view, not contiguous
        assert content_hash(flipped) == content_hash(
            np.ascontiguousarray(flipped)
        )
