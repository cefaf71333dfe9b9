"""Tests for the pluggable array-backend execution layer."""

import numpy as np
import pytest

import repro.nn.backend.fused as fused_mod
from repro.nn import functional as F
from repro.nn.backend import (
    ArrayBackend,
    FusedBackend,
    NumpyBackend,
    default_backend_name,
    get_backend,
    set_backend,
    use_backend,
)
from repro.nn.im2col import im2col, im2col_nhwc
from repro.nn.layers import BatchNorm2d, Conv2d
from repro.nn.resnet import resnet_micro, resnet_mini, resnet_small
from repro.nn.tensor import Tensor, no_grad
from repro.registry import BACKENDS, UnknownComponentError

#: NaN, +inf, -inf, -0.0 and a float32 subnormal: the values where two
#: ReLU formulas, or two summation orders, can disagree.
SPECIAL_VALUES = np.array(
    [np.nan, np.inf, -np.inf, -0.0, 0.0, 1e-40, -1e-40, 2.5, -2.5], dtype=np.float32
)


def assert_bitwise(actual, expected):
    """Equal values *and* bytes: NaN payloads and zero signs included."""
    np.testing.assert_array_equal(actual, expected)
    assert actual.dtype == expected.dtype
    assert actual.tobytes() == expected.tobytes()


def eval_conv_bn(rng, c_in, c_out, kernel=3, stride=1, padding=1):
    """A Conv2d + eval BatchNorm2d pair with non-trivial running stats."""
    conv = Conv2d(c_in, c_out, kernel, stride=stride, padding=padding, rng=rng)
    bn = BatchNorm2d(c_out)
    bn.set_buffer("running_mean", rng.normal(size=c_out).astype(np.float32))
    bn.set_buffer("running_var", rng.uniform(0.5, 2.0, size=c_out).astype(np.float32))
    bn.gamma.data[:] = rng.normal(size=c_out)
    bn.beta.data[:] = rng.normal(size=c_out)
    return conv.eval(), bn.eval()


def fused_conv(fused, x_nhwc, conv, bn, relu=True):
    """``fused.conv_bn_nhwc`` of one Conv2d + BatchNorm2d pair."""
    scale, shift = F.bn_eval_affine(bn)
    return fused.conv_bn_nhwc(
        x_nhwc, conv.weight.data, None, conv.stride, conv.padding, scale, shift, relu
    )


@pytest.fixture(autouse=True)
def _restore_backend():
    """Every test leaves the process-default backend untouched."""
    before = get_backend()
    yield
    set_backend(before)


class TestRegistry:
    def test_builtins_registered(self):
        assert "numpy" in BACKENDS
        assert "fused" in BACKENDS
        assert BACKENDS.get("np").name == "numpy"
        assert BACKENDS.get("fast").name == "fused"

    def test_unknown_backend_suggests(self):
        with pytest.raises(UnknownComponentError, match="did you mean 'fused'"):
            BACKENDS.get("fuse")

    def test_create_returns_fresh_instances(self):
        a = BACKENDS.create("fused")
        b = BACKENDS.create("fused")
        assert isinstance(a, FusedBackend)
        assert a is not b  # each holds its own workspace


class TestActiveState:
    def test_default_is_numpy(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert default_backend_name() == "numpy"
        set_backend(None)  # re-resolve the env default
        assert get_backend().name == "numpy"

    def test_env_selects_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "fused")
        set_backend(None)
        assert get_backend().name == "fused"

    def test_set_backend_by_name_and_instance(self):
        assert set_backend("fused").name == "fused"
        instance = NumpyBackend()
        assert set_backend(instance) is instance

    def test_use_backend_restores_on_exit(self):
        set_backend("numpy")
        with use_backend("fused") as active:
            assert active.name == "fused"
            assert get_backend().name == "fused"
        assert get_backend().name == "numpy"

    def test_use_backend_restores_on_error(self):
        set_backend("numpy")
        with pytest.raises(RuntimeError):
            with use_backend("fused"):
                raise RuntimeError("boom")
        assert get_backend().name == "numpy"

    def test_use_backend_none_is_inherit(self):
        set_backend("fused")
        with use_backend(None) as active:
            assert active.name == "fused"
        assert get_backend().name == "fused"

    def test_use_backend_nests(self):
        set_backend("numpy")
        with use_backend("fused"):
            with use_backend("numpy"):
                assert get_backend().name == "numpy"
            assert get_backend().name == "fused"
        assert get_backend().name == "numpy"


class TestProtocolSurface:
    def test_members_are_what_a_backend_specializes(self):
        """Every public member of the protocol is one a registered
        backend overrides, or one kept for a reason named here."""
        kept = {
            # The documented extension point: a BLAS-swapping backend
            # overrides it (DESIGN.md §8, "Adding a backend").
            "matmul",
            # perfbench times the backward fold by wrapping
            # ArrayBackend.col2im by name (its nn.col2im span).
            "col2im",
        }
        public = {name for name in vars(ArrayBackend) if not name.startswith("_")}
        overridden = set()
        for entry in BACKENDS.entries():
            for cls in entry.factory.__mro__[: entry.factory.__mro__.index(ArrayBackend)]:
                overridden |= public & set(vars(cls))
        assert public == overridden | kept
        assert public == {
            "name", "scoring_dtype", "relu", "matmul", "im2col", "col2im",
            "add_relu_infer", "conv_bn_nhwc", "pool_mean_nhwc",
        }


class TestPrecisionPolicy:
    def test_reference_policy(self):
        b = NumpyBackend()
        assert b.scoring_dtype == np.float64

    def test_fused_policy(self):
        b = FusedBackend()
        assert b.scoring_dtype == np.float32  # float32 end-to-end scoring

    def test_per_sample_loss_follows_policy_but_returns_float64(self):
        from repro.nn.losses import NTXentLoss

        rng = np.random.default_rng(0)
        z1 = Tensor(rng.normal(size=(6, 8)).astype(np.float32))
        z2 = Tensor(rng.normal(size=(6, 8)).astype(np.float32))
        loss = NTXentLoss()
        for name in ("numpy", "fused"):
            with use_backend(name):
                out = loss.per_sample(z1, z2)
            assert out.dtype == np.float64  # the buffer-score contract

    def test_scores_always_float64(self):
        from repro.core.scoring import ContrastScorer
        from repro.nn.projection import ProjectionHead
        from repro.nn.resnet import resnet_micro

        enc = resnet_micro()
        scorer = ContrastScorer(enc, ProjectionHead(enc.feature_dim, out_dim=8))
        images = np.random.default_rng(0).normal(size=(4, 3, 8, 8)).astype(np.float32)
        for name in ("numpy", "fused"):
            with use_backend(name):
                assert scorer.score(images).dtype == np.float64


class TestNumpyBackendReference:
    def test_elementwise_matches_numpy(self):
        b = NumpyBackend()
        x = np.linspace(-2, 2, 11, dtype=np.float32)
        np.testing.assert_array_equal(b.relu(x), np.where(x > 0, x, 0.0))
        for special in (SPECIAL_VALUES, SPECIAL_VALUES.astype(np.float64)):
            expected = np.where(special > 0, special, 0.0).astype(special.dtype)
            assert_bitwise(b.relu(special), expected)
            assert_bitwise(b.add_relu_infer(special, np.zeros_like(special)), expected)


def _eval_encoder(factory, rng):
    """An encoder in eval mode with random BN running stats and affine."""
    enc = factory(rng=rng)
    state = enc.state_dict()
    for key, value in state.items():
        if key.endswith("running_var"):
            state[key] = rng.uniform(0.5, 2.0, size=value.shape).astype(np.float32)
        elif key.endswith(("running_mean", "gamma", "beta")):
            state[key] = rng.normal(size=value.shape).astype(np.float32)
    enc.load_state_dict(state)
    return enc.eval()


def _module_path(enc, x):
    """The eval forward through the modules, NCHW throughout: Conv2d →
    BatchNorm2d (→ ReLU) per layer, the residual join, the pool."""
    with no_grad():
        out = F.conv_bn_relu(Tensor(x), enc.stem_conv, enc.stem_bn)
        for stage in enc.stages:
            out = stage(out)
        return F.global_avg_pool2d(out).data


class TestReferenceChain:
    """The numpy channels-last chain is the module path, bit for bit."""

    @pytest.mark.parametrize("factory", [resnet_micro, resnet_small, resnet_mini])
    @pytest.mark.parametrize("size", [7, 9, 12])
    def test_encoder_matches_module_path(self, factory, size):
        # Stride 2 and projection shortcuts on every encoder, odd maps.
        # Image 0 is plain; images 1-3 carry NaN/±inf, -0.0, subnormals.
        rng = np.random.default_rng(size)
        enc = _eval_encoder(factory, rng)
        x = rng.normal(size=(4, 3, size, size)).astype(np.float32)
        x[1].reshape(-1)[:: size][: len(SPECIAL_VALUES)] = SPECIAL_VALUES
        x[2] = -0.0
        x[3, 1] = 1e-40
        with use_backend("numpy"), np.errstate(invalid="ignore", over="ignore"):
            with no_grad():
                chain = enc(Tensor(x)).data
            reference = _module_path(enc, x)
            autograd = enc(Tensor(x)).data  # grad on: the module path too
        assert_bitwise(chain, reference)
        assert_bitwise(chain, autograd)
        assert np.isfinite(chain[0]).all()

    def test_scorer_and_features_match_module_path(self, monkeypatch):
        from repro.core.scoring import ContrastScorer
        from repro.nn.projection import ProjectionHead

        rng = np.random.default_rng(2)
        enc = _eval_encoder(resnet_small, rng)
        scorer = ContrastScorer(enc, ProjectionHead(enc.feature_dim, out_dim=8))
        images = rng.normal(size=(6, 3, 12, 12)).astype(np.float32)
        with use_backend("numpy"):
            features = scorer.features(images)
            scores = scorer.score(images)
            # The same scorer with the encoder's chain swapped for the modules.
            monkeypatch.setattr(
                type(enc), "_infer_nhwc_chain", lambda self, x, backend: _module_path(self, x)
            )
            assert_bitwise(scorer.features(images), features)
            assert_bitwise(scorer.score(images), scores)


class TestFusedOps:
    def test_im2col_nhwc_matches_nchw_reorder(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(2, 3, 6, 6)).astype(np.float32)
        for stride, padding, k in [(1, 1, 3), (2, 0, 1), (2, 1, 3)]:
            cols_nchw = im2col(x, (k, k), stride, padding)  # (..., C*kh*kw)
            cols_nhwc = im2col_nhwc(
                np.ascontiguousarray(x.transpose(0, 2, 3, 1)), (k, k), stride, padding
            )  # (..., kh*kw*C)
            n, oh, ow, _ = cols_nchw.shape
            a = cols_nchw.reshape(n, oh, ow, 3, k, k)
            bmat = cols_nhwc.reshape(n, oh, ow, k, k, 3)
            np.testing.assert_array_equal(a, bmat.transpose(0, 1, 2, 5, 3, 4))

    def test_conv_bn_infer_matches_unfused(self):
        """Eval conv + BN + ReLU, 3x3 stride 1 (the tiled side of the
        tile rule), against the module path."""
        rng = np.random.default_rng(2)
        conv, bn = eval_conv_bn(rng, 3, 5)
        x = Tensor(rng.normal(size=(4, 3, 8, 8)).astype(np.float32))
        with no_grad(), use_backend("numpy"):
            ref = F.conv_bn_relu(x, conv, bn).data
        fused = FusedBackend()
        x_nhwc = np.ascontiguousarray(x.data.transpose(0, 2, 3, 1))
        out = fused_conv(fused, x_nhwc, conv, bn)
        np.testing.assert_allclose(out.transpose(0, 3, 1, 2), ref, atol=1e-5)

    def test_conv_bn_nhwc_matches_unfused(self):
        """Eval conv + BN, stride 2 (the untiled side of the tile rule),
        against the module path."""
        rng = np.random.default_rng(3)
        conv, bn = eval_conv_bn(rng, 4, 6, stride=2)
        x = Tensor(rng.normal(size=(2, 4, 8, 8)).astype(np.float32))
        with no_grad(), use_backend("numpy"):
            ref = F.conv_bn_relu(x, conv, bn, relu=False).data
        fused = FusedBackend()
        x_nhwc = np.ascontiguousarray(x.data.transpose(0, 2, 3, 1))
        out = fused_conv(fused, x_nhwc, conv, bn, relu=False)
        np.testing.assert_allclose(out.transpose(0, 3, 1, 2), ref, atol=1e-5)

    def test_returned_arrays_are_caller_owned(self):
        """Protocol invariant 2: successive fused calls never clobber
        previously returned outputs (tiled 3->4 and untiled 3->20)."""
        rng = np.random.default_rng(4)
        fused = FusedBackend()
        for c_out in (4, 20):
            conv, bn = eval_conv_bn(rng, 3, c_out)
            x1 = rng.normal(size=(2, 6, 6, 3)).astype(np.float32)
            x2 = rng.normal(size=(2, 6, 6, 3)).astype(np.float32)
            out1 = fused_conv(fused, x1, conv, bn)
            snapshot = out1.copy()
            out2 = fused_conv(fused, x2, conv, bn)  # reuses the arenas
            np.testing.assert_array_equal(out1, snapshot)
            assert not np.shares_memory(out1, out2)

    def test_add_relu_infer(self):
        fused = FusedBackend()
        a = np.array([[-1.0, 2.0]], dtype=np.float32)
        b = np.array([[0.5, -3.0]], dtype=np.float32)
        np.testing.assert_array_equal(
            fused.add_relu_infer(a.copy(), b), np.array([[0.0, 0.0]], np.float32)
        )

    def test_float64_inputs_keep_their_width(self):
        rng = np.random.default_rng(5)
        fused = FusedBackend()
        for c_out in (3, 20):  # tiled and untiled
            w = rng.normal(size=(c_out, 2, 3, 3))
            x = rng.normal(size=(1, 6, 6, 2))  # float64
            out = fused.conv_bn_nhwc(x, w, None, 1, 1, None, None, False)
            assert out.dtype == np.float64


class TestFusedTiles:
    """3x3 stride-1 convolutions with <= 16 output channels on even
    maps run as 2x2 output tiles, one per GEMM row."""

    @staticmethod
    def _unfolds(monkeypatch):
        kernels = []
        unfold = fused_mod.im2col_nhwc

        def spy(x, kernel, stride, padding, workspace=None):
            kernels.append((kernel, stride, padding))
            return unfold(x, kernel, stride, padding, workspace=workspace)

        monkeypatch.setattr(fused_mod, "im2col_nhwc", spy)
        return kernels

    def test_matches_untiled_at_every_eligible_shape(self, monkeypatch):
        rng = np.random.default_rng(6)
        fused = FusedBackend()
        kernels = self._unfolds(monkeypatch)
        calls = []
        for c_in, c_out, h, w in [
            (3, 12, 12, 12), (12, 12, 12, 12), (1, 1, 2, 2), (5, 16, 4, 6),
            (16, 7, 8, 2), (2, 9, 10, 4),
        ]:
            conv, bn = eval_conv_bn(rng, c_in, c_out)
            bias = rng.normal(size=c_out).astype(np.float32)
            x = rng.normal(size=(3, h, w, c_in)).astype(np.float32)
            scale, shift = F.bn_eval_affine(bn)
            for relu in (True, False):
                calls.append((x, conv.weight.data, bias, 1, 1, scale, shift, relu))
        tiled = [fused.conv_bn_nhwc(*args) for args in calls]
        assert kernels == [((4, 4), 2, 1)] * len(calls)
        kernels.clear()
        monkeypatch.setattr(fused_mod, "TILE_MAX_C_OUT", 0)
        untiled = [fused.conv_bn_nhwc(*args) for args in calls]
        assert kernels == [((3, 3), 1, 1)] * len(calls)
        for args, a, b in zip(calls, tiled, untiled):
            assert a.shape == b.shape == args[0].shape[:3] + (args[1].shape[0],)
            np.testing.assert_allclose(a, b, rtol=1e-5, atol=1e-5)

    def test_ineligible_shapes_take_the_untiled_path(self, monkeypatch):
        rng = np.random.default_rng(7)
        fused = FusedBackend()
        kernels = self._unfolds(monkeypatch)
        for c_out, h, w, k, stride, padding in [
            (12, 7, 7, 3, 1, 1),  # odd map
            (12, 8, 7, 3, 1, 1),  # odd width
            (12, 8, 8, 3, 2, 1),  # stride 2
            (17, 8, 8, 3, 1, 1),  # C_out > 16
            (12, 8, 8, 1, 1, 0),  # 1x1
            (12, 8, 8, 3, 1, 0),  # no padding
        ]:
            conv, bn = eval_conv_bn(rng, 3, c_out, kernel=k, stride=stride, padding=padding)
            x = rng.normal(size=(2, 3, h, w)).astype(np.float32)
            kernels.clear()
            x_nhwc = np.ascontiguousarray(x.transpose(0, 2, 3, 1))
            out = fused_conv(fused, x_nhwc, conv, bn)
            assert kernels == [((k, k), stride, padding)]
            with no_grad(), use_backend("numpy"):
                ref = F.conv_bn_relu(Tensor(x), conv, bn).data
            np.testing.assert_allclose(out.transpose(0, 3, 1, 2), ref, rtol=1e-4, atol=1e-5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_pixel_stays_in_its_image(self, bad):
        rng = np.random.default_rng(8)
        fused = FusedBackend()
        conv, bn = eval_conv_bn(rng, 3, 12)
        x = rng.normal(size=(3, 8, 8, 3)).astype(np.float32)
        clean = fused_conv(fused, x, conv, bn, relu=False)
        x[1, 3, 4, 2] = bad
        with np.errstate(invalid="ignore"):
            out = fused_conv(fused, x, conv, bn, relu=False)
        assert_bitwise(out[[0, 2]], clean[[0, 2]])
        assert not np.isfinite(out[1]).all()


class TestFunctionalDispatch:
    def test_conv_bn_relu_training_mode_never_fuses(self):
        """Training-mode BN must use batch stats — the fused affine
        would silently use running stats instead."""
        rng = np.random.default_rng(6)
        conv = Conv2d(3, 4, 3, stride=1, padding=1, rng=rng)
        bn = BatchNorm2d(4)  # training mode, fresh running stats
        x = Tensor(rng.normal(size=(4, 3, 6, 6)).astype(np.float32))
        with no_grad():
            with use_backend("numpy"):
                ref = F.conv_bn_relu(x, conv, bn).data
            bn2 = BatchNorm2d(4)
            with use_backend("fused"):
                out = F.conv_bn_relu(x, conv, bn2).data
        np.testing.assert_allclose(out, ref, rtol=1e-5, atol=1e-6)

    def test_autograd_path_identical_across_backends(self):
        """Invariant 1: graph-recorded forward + backward are bitwise
        equal on numpy and fused (fusion is no_grad-only)."""
        rng = np.random.default_rng(7)
        x_data = rng.normal(size=(2, 3, 6, 6)).astype(np.float32)

        def run():
            conv = Conv2d(3, 4, 3, stride=1, padding=1, rng=np.random.default_rng(0))
            bn = BatchNorm2d(4)
            x = Tensor(x_data.copy(), requires_grad=True)
            out = F.conv_bn_relu(x, conv, bn)
            out.sum().backward()
            return out.data, x.grad, conv.weight.grad

        with use_backend("numpy"):
            out_n, gx_n, gw_n = run()
        with use_backend("fused"):
            out_f, gx_f, gw_f = run()
        np.testing.assert_array_equal(out_n, out_f)
        np.testing.assert_array_equal(gx_n, gx_f)
        np.testing.assert_array_equal(gw_n, gw_f)

    def test_encoder_nhwc_chain_matches_reference(self):
        from repro.nn.resnet import resnet_small

        rng = np.random.default_rng(8)
        enc = resnet_small(rng=rng)
        enc.eval()
        x = Tensor(rng.normal(size=(4, 3, 12, 12)).astype(np.float32))
        with no_grad():
            with use_backend("numpy"):
                ref = enc(x).data
            with use_backend("fused"):
                out = enc(x).data
        assert out.shape == ref.shape
        np.testing.assert_allclose(out, ref, atol=1e-4)
