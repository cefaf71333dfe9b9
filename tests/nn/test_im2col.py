"""Tests for im2col/col2im against naive sliding-window references."""

import tracemalloc

import numpy as np
import pytest

from repro.nn.im2col import col2im, conv_output_size, im2col


@pytest.fixture
def rng():
    return np.random.default_rng(7)


def naive_im2col(x, kernel, stride, padding):
    kh, kw = kernel
    n, c, h, w = x.shape
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    out_h = (x.shape[2] - kh) // stride + 1
    out_w = (x.shape[3] - kw) // stride + 1
    cols = np.zeros((n, out_h, out_w, c * kh * kw), dtype=x.dtype)
    for b in range(n):
        for i in range(out_h):
            for j in range(out_w):
                patch = x[b, :, i * stride : i * stride + kh, j * stride : j * stride + kw]
                cols[b, i, j] = patch.reshape(-1)
    return cols


def naive_col2im(cols, input_shape, kernel, stride, padding):
    """Scatter-add every column entry, kernel offset (ki, kj) outermost.

    A pixel gets at most one addition per offset, so this fixes the
    order of each pixel's sum: (ki, kj) row-major, starting from zero.
    """
    kh, kw = kernel
    n, c, h, w = input_shape
    out_h, out_w = cols.shape[1:3]
    padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=cols.dtype)
    cols6 = cols.reshape(n, out_h, out_w, c, kh, kw)
    for ki in range(kh):
        for kj in range(kw):
            for i in range(out_h):
                for j in range(out_w):
                    padded[:, :, i * stride + ki, j * stride + kj] += cols6[:, i, j, :, ki, kj]
    return padded[:, :, padding : padding + h, padding : padding + w]


class TestConvOutputSize:
    def test_basic(self):
        assert conv_output_size(8, 3, 1, 1) == 8
        assert conv_output_size(8, 3, 2, 1) == 4
        assert conv_output_size(5, 5, 1, 0) == 1

    def test_invalid_raises(self):
        with pytest.raises(ValueError):
            conv_output_size(2, 5, 1, 0)


class TestIm2col:
    @pytest.mark.parametrize(
        "shape,kernel,stride,padding",
        [
            ((2, 3, 8, 8), (3, 3), 1, 1),
            ((1, 1, 5, 5), (3, 3), 2, 0),
            ((2, 4, 6, 6), (1, 1), 1, 0),
            ((1, 2, 7, 9), (3, 3), 2, 1),
            ((3, 2, 4, 4), (2, 2), 2, 0),
            ((2, 4, 7, 7), (1, 1), 2, 0),
        ],
    )
    def test_matches_naive(self, rng, shape, kernel, stride, padding):
        for dtype in (np.float32, np.float64):
            x = rng.normal(size=shape).astype(dtype)
            fast = im2col(x, kernel, stride, padding)
            slow = naive_im2col(x, kernel, stride, padding)
            assert fast.dtype == dtype and fast.flags.c_contiguous
            np.testing.assert_array_equal(fast, slow)

    def test_rejects_non_4d(self, rng):
        with pytest.raises(ValueError):
            im2col(rng.normal(size=(3, 8, 8)), (3, 3), 1, 1)

    def test_fresh_unfold_allocates_no_full_size_temporary(self, rng):
        """At the scoring shape a fresh unfold allocates the column matrix
        and the padded input, plus only a small staging chunk: a
        transpose through a full-size temporary would double the peak."""
        x = rng.normal(size=(128, 12, 12, 12)).astype(np.float32)
        padded_bytes = 128 * 14 * 14 * 12 * x.itemsize
        tracemalloc.start()
        try:
            cols = im2col(x, (3, 3), 1, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.2 * (cols.nbytes + padded_bytes)

    def test_column_layout_matches_weight_flatten(self, rng):
        """cols @ w.reshape(F,-1).T must equal direct convolution."""
        x = rng.normal(size=(1, 2, 5, 5)).astype(np.float64)
        w = rng.normal(size=(3, 2, 3, 3)).astype(np.float64)
        cols = im2col(x, (3, 3), 1, 1)
        out = cols @ w.reshape(3, -1).T  # (1, 5, 5, 3)
        # naive convolution
        xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
        ref = np.zeros((1, 5, 5, 3))
        for f in range(3):
            for i in range(5):
                for j in range(5):
                    ref[0, i, j, f] = (xp[0, :, i : i + 3, j : j + 3] * w[f]).sum()
        np.testing.assert_allclose(out, ref, rtol=1e-9)


class TestCol2im:
    @pytest.mark.parametrize(
        "shape,kernel,stride,padding",
        [
            ((2, 3, 8, 8), (3, 3), 1, 1),
            ((1, 1, 5, 5), (3, 3), 2, 0),
            ((2, 2, 6, 6), (2, 2), 2, 0),
            ((1, 2, 7, 9), (3, 3), 2, 1),
        ],
    )
    def test_adjoint_of_im2col(self, rng, shape, kernel, stride, padding):
        """col2im is the transpose of im2col: <im2col(x), c> == <x, col2im(c)>."""
        x = rng.normal(size=shape).astype(np.float64)
        cols_shape = naive_im2col(x, kernel, stride, padding).shape
        c = rng.normal(size=cols_shape).astype(np.float64)
        lhs = (im2col(x, kernel, stride, padding) * c).sum()
        rhs = (x * col2im(c, shape, kernel, stride, padding)).sum()
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_shape_mismatch_raises(self, rng):
        c = rng.normal(size=(1, 4, 4, 9))
        with pytest.raises(ValueError):
            col2im(c, (1, 1, 5, 5), (3, 3), 1, 1)

    def test_overlap_accumulates(self):
        """Stride 1 with a 2x2 kernel: interior pixels belong to 4 windows."""
        x_shape = (1, 1, 3, 3)
        cols = np.ones((1, 2, 2, 4))
        out = col2im(cols, x_shape, (2, 2), 1, 0)
        expected = np.array([[1, 2, 1], [2, 4, 2], [1, 2, 1]], dtype=float)
        np.testing.assert_allclose(out[0, 0], expected)

    @pytest.mark.parametrize(
        "shape,kernel,stride,padding",
        [
            ((2, 3, 8, 8), (3, 3), 1, 1),
            ((1, 1, 5, 5), (3, 3), 2, 0),
            ((2, 2, 6, 6), (2, 2), 1, 0),
            ((1, 2, 7, 9), (3, 3), 2, 1),
            ((2, 4, 7, 7), (1, 1), 2, 0),
            ((1, 3, 4, 5), (3, 3), 1, 2),
        ],
    )
    def test_matches_naive_fold_exactly(self, rng, shape, kernel, stride, padding):
        """Same additions in the same (ki, kj) order: equal bits, signed
        zeros included (0.0 + -0.0 is +0.0)."""
        cols_shape = naive_im2col(np.zeros(shape), kernel, stride, padding).shape
        for dtype in (np.float32, np.float64):
            cols = rng.normal(size=cols_shape).astype(dtype)
            cols[np.abs(cols) < 0.2] = -0.0
            out = col2im(cols, shape, kernel, stride, padding)
            ref = naive_col2im(cols, shape, kernel, stride, padding)
            assert out.dtype == dtype and out.flags.c_contiguous
            assert out.tobytes() == np.ascontiguousarray(ref).tobytes()


class TestIm2colWorkspace:
    """Workspace-backed unfolds must be value-identical to fresh ones."""

    @pytest.mark.parametrize(
        "shape,kernel,stride,padding",
        [
            ((2, 3, 8, 8), (3, 3), 1, 1),
            ((1, 1, 5, 5), (3, 3), 2, 0),
            ((2, 2, 6, 6), (2, 2), 2, 0),
            ((1, 2, 7, 9), (3, 3), 2, 1),
        ],
    )
    def test_matches_fresh_allocation(self, rng, shape, kernel, stride, padding):
        from repro.nn.im2col import Im2colWorkspace

        ws = Im2colWorkspace()
        x = rng.normal(size=shape).astype(np.float32)
        fresh = im2col(x, kernel, stride, padding)
        # run twice so the second call exercises the buffer-reuse path
        im2col(x, kernel, stride, padding, workspace=ws)
        cached = im2col(x, kernel, stride, padding, workspace=ws)
        np.testing.assert_array_equal(cached, fresh)
        assert ws.hits > 0

    def test_border_rezeroed_on_reuse(self, rng):
        """A reused padded buffer must not leak the previous call's data."""
        from repro.nn.im2col import Im2colWorkspace

        ws = Im2colWorkspace()
        a = rng.normal(size=(1, 2, 6, 6)).astype(np.float32)
        b = rng.normal(size=(1, 2, 6, 6)).astype(np.float32)
        im2col(a, (3, 3), 1, 2, workspace=ws)  # padding 2: border strips
        out = im2col(b, (3, 3), 1, 2, workspace=ws)
        np.testing.assert_array_equal(out, im2col(b, (3, 3), 1, 2))

    def test_stats_and_clear(self, rng):
        from repro.nn.im2col import Im2colWorkspace

        ws = Im2colWorkspace()
        x = rng.normal(size=(1, 2, 6, 6)).astype(np.float32)
        im2col(x, (3, 3), 1, 1, workspace=ws)
        im2col(x, (3, 3), 1, 1, workspace=ws)
        stats = ws.stats()
        assert stats["misses"] == 2 and stats["hits"] == 2  # pad + cols buffers
        assert 0.0 < stats["hit_rate"] <= 1.0 and stats["bytes"] > 0
        ws.clear()
        assert ws.stats()["buffers"] == 0

    def test_mixed_dtypes_share_arenas(self, rng):
        from repro.nn.im2col import Im2colWorkspace

        ws = Im2colWorkspace()
        x32 = rng.normal(size=(1, 2, 6, 6)).astype(np.float32)
        out64 = im2col(x32.astype(np.float64), (3, 3), 1, 1, workspace=ws)
        assert out64.dtype == np.float64
        out32 = im2col(x32, (3, 3), 1, 1, workspace=ws)
        assert out32.dtype == np.float32
        np.testing.assert_array_equal(out32, im2col(x32, (3, 3), 1, 1))

    def test_memory_bounded_across_distinct_shapes(self, rng):
        """Variable batch sizes (the fused scoring path) must not grow
        the arena count — one arena per role, sized to the max seen."""
        from repro.nn.im2col import Im2colWorkspace

        ws = Im2colWorkspace()
        for n in (1, 5, 3, 7, 2, 7):
            x = rng.normal(size=(n, 2, 6, 6)).astype(np.float32)
            out = im2col(x, (3, 3), 1, 1, workspace=ws)
            np.testing.assert_array_equal(out, im2col(x, (3, 3), 1, 1))
        stats = ws.stats()
        assert stats["buffers"] == 2  # pad + cols arenas, regardless of shapes
        # arenas only grow to the largest request (n=7), never per shape
        x7 = rng.normal(size=(7, 2, 6, 6)).astype(np.float32)
        expected = im2col(x7, (3, 3), 1, 1, workspace=None)
        assert stats["bytes"] <= 2 * max(expected.nbytes, 7 * 2 * 8 * 8 * 4)


class TestConv2dWorkspaceGating:
    """conv2d must only reuse the shared workspace on gradient-free passes."""

    def test_grad_forward_owns_its_columns(self, rng):
        from repro.nn import functional as F
        from repro.nn.im2col import default_workspace
        from repro.nn.tensor import Tensor

        x = Tensor(rng.normal(size=(2, 2, 6, 6)).astype(np.float32), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 2, 3, 3)).astype(np.float32), requires_grad=True)
        ws = default_workspace()
        ws.clear()
        before = ws.stats()["misses"]
        F.conv2d(x, w, stride=1, padding=1).sum().backward()
        assert ws.stats()["misses"] == before  # workspace untouched
        assert w.grad is not None

    def test_nograd_forward_matches_grad_forward(self, rng):
        from repro.nn import functional as F
        from repro.nn.tensor import Tensor, no_grad

        x = Tensor(rng.normal(size=(2, 2, 6, 6)).astype(np.float32), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 2, 3, 3)).astype(np.float32), requires_grad=True)
        with_grad = F.conv2d(x, w, stride=1, padding=1).data
        with no_grad():
            F.conv2d(x, w, stride=1, padding=1)  # warm the workspace
            without = F.conv2d(x, w, stride=1, padding=1).data
        np.testing.assert_array_equal(with_grad, without)

    def test_interleaved_grad_and_nograd_backward_correct(self, rng):
        """A no_grad forward between forward and backward must not corrupt
        the autograd convolution's retained columns."""
        from repro.nn import functional as F
        from repro.nn.tensor import Tensor, no_grad

        x = Tensor(rng.normal(size=(2, 2, 6, 6)).astype(np.float32), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 2, 3, 3)).astype(np.float32), requires_grad=True)

        out = F.conv2d(x, w, stride=1, padding=1)
        with no_grad():
            F.conv2d(Tensor(rng.normal(size=(2, 2, 6, 6)).astype(np.float32)), w,
                     stride=1, padding=1)
        out.sum().backward()
        grad_interleaved = w.grad.copy()

        x2 = Tensor(x.data.copy(), requires_grad=True)
        w2 = Tensor(w.data.copy(), requires_grad=True)
        F.conv2d(x2, w2, stride=1, padding=1).sum().backward()
        np.testing.assert_array_equal(grad_interleaved, w2.grad)
