"""Property tests: the channels-last unfold and fold are bit-identical to
the direct NCHW transforms.

``spec_im2col`` and ``spec_col2im`` below are the NCHW implementations
the channels-last ones replaced, kept here as the executable spec: a
strided window view of the padded NCHW batch copied into (C, kh, kw)
column order, and a fold that adds one kernel offset at a time, in
(i, j) order, into a zeroed NCHW buffer.  Every GEMM around the unfold
and fold is unchanged, so bit equality here is what keeps training
trajectories, and every fingerprint built on them, unchanged.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.im2col import Im2colWorkspace, col2im, conv_output_size, im2col

SETTINGS = dict(max_examples=60, deadline=None)


def spec_im2col(x, kernel, stride, padding):
    kh, kw = kernel
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kh, stride, padding)
    out_w = conv_output_size(w, kw, stride, padding)
    if padding > 0:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    sn, sc, sh, sw = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, out_h, out_w, kh, kw),
        strides=(sn, sc, sh * stride, sw * stride, sh, sw),
        writeable=False,
    )
    cols = np.ascontiguousarray(windows.transpose(0, 2, 3, 1, 4, 5))
    return cols.reshape(n, out_h, out_w, c * kh * kw)


def spec_col2im(cols, input_shape, kernel, stride, padding):
    kh, kw = kernel
    n, c, h, w = input_shape
    out_h = conv_output_size(h, kh, stride, padding)
    out_w = conv_output_size(w, kw, stride, padding)
    padded = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dtype=cols.dtype)
    cols6 = cols.reshape(n, out_h, out_w, c, kh, kw)
    for i in range(kh):
        i_end = i + stride * out_h
        for j in range(kw):
            j_end = j + stride * out_w
            padded[:, :, i:i_end:stride, j:j_end:stride] += cols6[
                :, :, :, :, i, j
            ].transpose(0, 3, 1, 2)
    if padding > 0:
        return padded[:, :, padding:-padding, padding:-padding]
    return padded


def assert_same_bits(actual, expected):
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert actual.flags.c_contiguous
    assert actual.tobytes() == np.ascontiguousarray(expected).tobytes()


@st.composite
def conv_cases(draw):
    k = draw(st.sampled_from([1, 2, 3]))
    stride = draw(st.sampled_from([1, 2]))
    padding = draw(st.sampled_from([0, 1, 2]))
    low = max(1, k - 2 * padding)  # at least one output pixel
    shape = (
        draw(st.integers(1, 5)),
        draw(st.integers(1, 6)),
        draw(st.integers(low, 9)),
        draw(st.integers(low, 9)),
    )
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    return shape, (k, k), stride, padding, dtype, rng


def _values(rng, shape, dtype):
    """Normal draws with signed zeros mixed in (0.0 + -0.0 is +0.0, so
    a fold that adds in another order or starts elsewhere shows)."""
    values = rng.normal(size=shape).astype(dtype)
    values[rng.random(shape) < 0.2] = -0.0
    return values


class TestChannelsLastMatchesNchwSpec:
    @settings(**SETTINGS)
    @given(case=conv_cases(), use_workspace=st.booleans())
    def test_im2col(self, case, use_workspace):
        shape, kernel, stride, padding, dtype, rng = case
        x = _values(rng, shape, dtype)
        workspace = Im2colWorkspace() if use_workspace else None
        out = im2col(x, kernel, stride, padding, workspace=workspace)
        assert_same_bits(out, spec_im2col(x, kernel, stride, padding))

    @settings(**SETTINGS)
    @given(case=conv_cases())
    def test_im2col_of_a_strided_view(self, case):
        """Non-contiguous inputs (autograd hands the unfold views)."""
        shape, kernel, stride, padding, dtype, rng = case
        x = _values(rng, shape[:3] + (2 * shape[3],), dtype)[..., ::2]
        out = im2col(x, kernel, stride, padding)
        assert_same_bits(out, spec_im2col(x, kernel, stride, padding))

    @settings(**SETTINGS)
    @given(case=conv_cases())
    def test_col2im(self, case):
        shape, kernel, stride, padding, dtype, rng = case
        n, _, h, w = shape
        out_h = conv_output_size(h, kernel[0], stride, padding)
        out_w = conv_output_size(w, kernel[1], stride, padding)
        cols = _values(rng, (n, out_h, out_w, shape[1] * kernel[0] * kernel[1]), dtype)
        out = col2im(cols, shape, kernel, stride, padding)
        assert_same_bits(out, spec_col2im(cols, shape, kernel, stride, padding))

    @settings(**SETTINGS)
    @given(case=conv_cases())
    def test_workspace_reuse_across_shapes(self, case):
        """A warm workspace, last used at another shape, still gives the
        spec's bits (stale arena contents never leak into the border)."""
        shape, kernel, stride, padding, dtype, rng = case
        workspace = Im2colWorkspace()
        big = _values(rng, (shape[0] + 1, shape[1] + 1) + shape[2:], dtype)
        im2col(big, kernel, stride, padding, workspace=workspace)
        x = _values(rng, shape, dtype)
        out = im2col(x, kernel, stride, padding, workspace=workspace)
        assert_same_bits(out, spec_im2col(x, kernel, stride, padding))
