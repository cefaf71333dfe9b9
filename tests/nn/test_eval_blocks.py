"""Eval no-grad encoder forwards run in balanced blocks of at most
``EVAL_BLOCK`` images (``ResNetEncoder.forward``).

The blocks bound the unfold scratch to one block and move no byte: on
both backends the blocked forward equals the channels-last chain over
the whole batch.  Training-mode forwards are not blocked, so BatchNorm
keeps whole-batch statistics with or without gradients.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.config import default_config
from repro.nn.backend import get_backend, use_backend
from repro.nn.im2col import default_workspace
from repro.nn.resnet import EVAL_BLOCK, ResNetEncoder
from repro.nn.tensor import Tensor, no_grad
from repro.session import build_components
from repro.train.knn import KnnProbe


def _encoder(widths, seed):
    """An eval encoder with random BN running stats and affine."""
    rng = np.random.default_rng(seed)
    enc = ResNetEncoder(3, widths=widths, blocks_per_stage=1, rng=rng)
    state = enc.state_dict()
    for key, value in state.items():
        if key.endswith("running_var"):
            state[key] = rng.uniform(0.5, 2.0, size=value.shape).astype(np.float32)
        elif key.endswith(("running_mean", "gamma", "beta")):
            state[key] = rng.normal(size=value.shape).astype(np.float32)
    enc.load_state_dict(state)
    return enc.eval()


#: The stream workload's default encoder on 12-px images, and the fleet
#: workload's on 10-px images.
MODELS = {
    "stream-12px": (_encoder((12, 24, 48), seed=0), 12),
    "fleet-10px": (_encoder((8, 16), seed=1), 10),
}

#: Batch sizes the fused backend was measured at: around each multiple of
#: the block (a plain split would leave a last block of one image at 33,
#: 65 and 97), and the probe and kNN pools.
FUSED_SIZES = [1, 2, 16, 31, 32, 33, 64, 65, 96, 97, 128, 139, 200, 255, 256, 257, 400]


def _assert_blocked_forward_is_whole_chain(backend, model, n, seed):
    enc, size = MODELS[model]
    x = np.random.default_rng(seed).normal(size=(n, 3, size, size)).astype(np.float32)
    with use_backend(backend), no_grad():
        blocked = enc(Tensor(x)).data
        whole = enc._infer_nhwc_chain(x, get_backend())
    assert blocked.dtype == whole.dtype
    assert blocked.tobytes() == whole.tobytes()


@pytest.mark.parametrize("model", sorted(MODELS))
@settings(max_examples=20, deadline=None)
@given(n=st.integers(1, 200), seed=st.integers(0, 2**31 - 1))
def test_numpy_blocks_keep_every_byte(model, n, seed):
    _assert_blocked_forward_is_whole_chain("numpy", model, n, seed)


@pytest.mark.parametrize("model", sorted(MODELS))
@pytest.mark.parametrize("n", FUSED_SIZES)
@settings(max_examples=2, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_fused_blocks_keep_every_byte(model, n, seed):
    _assert_blocked_forward_is_whole_chain("fused", model, n, seed)


@pytest.mark.parametrize("backend", ["numpy", "fused"])
def test_knn_readout_retains_one_block_of_scratch(backend):
    """A 400-image kNN readout leaves the arenas no larger than one
    32-image forward does (unblocked, it kept ~29 MB on numpy)."""
    config = default_config(seed=0)
    comp = build_components(config)
    train_x, train_y = comp.dataset.make_split(
        config.probe_train_per_class, comp.rngs.get("probe-train-pool")
    )
    test_x, test_y = comp.dataset.make_split(
        config.probe_test_per_class, comp.rngs.get("probe-test-pool")
    )
    assert train_x.shape[0] == 400
    enc = comp.encoder.eval()
    with use_backend(backend), no_grad():
        active = get_backend()
        workspace = active.workspace if backend == "fused" else default_workspace()
        workspace.clear()
        enc(Tensor(train_x[:EVAL_BLOCK]))
        one_block = workspace.stats()["bytes"]
        workspace.clear()
        KnnProbe(enc).score(
            train_x, train_y, test_x, test_y, num_classes=comp.dataset.num_classes
        )
        retained = workspace.stats()["bytes"]
    assert 0 < retained <= one_block


def test_training_forward_without_grad_normalizes_the_whole_batch():
    """``no_grad`` alone does not block: a training-mode forward takes
    its BatchNorm statistics over all of its images."""
    x = np.random.default_rng(3).normal(size=(2 * EVAL_BLOCK + 1, 3, 10, 10))
    x = Tensor(x.astype(np.float32))
    grad_free, autograd, halves = (_encoder((8, 16), seed=2).train() for _ in range(3))
    with no_grad():
        out = grad_free(x).data
        split = np.concatenate(
            [halves(Tensor(part)).data for part in np.array_split(x.data, 2)]
        )
    reference = autograd(x).data
    assert out.tobytes() == reference.tobytes()
    for key, value in grad_free.state_dict().items():
        assert value.tobytes() == autograd.state_dict()[key].tobytes(), key
    assert not np.array_equal(out, split)


@pytest.mark.parametrize("backend", ["numpy", "fused"])
@pytest.mark.parametrize("size, unfold", [(10, (4, 4)), (9, (3, 3))])
def test_empty_batch_returns_empty_features(backend, size, unfold, monkeypatch):
    """An eval no-grad forward of 0 images is a ``(0, feature_dim)``
    array on both backends, on the fused chain's tiled stem (even map,
    4x4 tile unfold) and its untiled one (odd map, 3x3 unfold)."""
    import repro.nn.backend.fused as fused_mod

    kernels = []
    unfold_nhwc = fused_mod.im2col_nhwc

    def spy(x, kernel, stride, padding, workspace=None):
        kernels.append(kernel)
        return unfold_nhwc(x, kernel, stride, padding, workspace=workspace)

    monkeypatch.setattr(fused_mod, "im2col_nhwc", spy)
    enc, _ = MODELS["fleet-10px"]
    with use_backend(backend), no_grad():
        out = enc(Tensor(np.zeros((0, 3, size, size), dtype=np.float32))).data
    assert out.shape == (0, enc.feature_dim)
    assert out.dtype == np.float32
    if backend == "fused":
        assert kernels[0] == unfold
