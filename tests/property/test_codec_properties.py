"""Property tests for the lossy compressed-delta codec.

``delta-q8`` trades exactness for bandwidth, but only inside a
documented tolerance contract (wire.py docstrings and docs/FLEET.md
codec table): its per-element absolute error is at most the affine
scale and exact zeros stay exactly zero.  Full sends — first contact
and every send after a respawn/invalidate — are bitwise.  These tests
drive the contract over random shapes, dtypes, and state transitions,
and assert the lossless registry metadata stays truthful."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.wire import (
    WireProtocolError,
    array_hash,
    create_wire_format,
    lossless_wire_format_names,
    shm_available,
)
from repro.registry import WIRE_FORMATS

SETTINGS = dict(max_examples=25, deadline=None)

LOSSY = ("delta-q8",)


@st.composite
def float_transitions(draw):
    """A (base, new) pair of same-shape float arrays large enough to
    trigger compression, with exact zeros planted in ``new``."""
    dtype = draw(st.sampled_from((np.float32, np.float64)))
    size = draw(st.integers(64, 300))
    magnitude = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    step = draw(st.sampled_from([0.01, 0.5, 2.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    base = (rng.normal(size=size) * magnitude).astype(dtype)
    new = (base + rng.normal(size=size) * magnitude * step).astype(dtype)
    zeros = rng.choice(size, size=draw(st.integers(0, 8)), replace=False)
    new[zeros] = 0.0
    return base, new


@st.composite
def array_dicts(draw):
    """Random state dicts mixing dtypes, dims, and degenerate shapes."""
    out = {}
    for i in range(draw(st.integers(0, 4))):
        dtype = draw(
            st.sampled_from((np.float32, np.float64, np.int64, np.uint8))
        )
        shape = tuple(draw(st.lists(st.integers(0, 6), max_size=3)))
        rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
        if np.issubdtype(dtype, np.floating):
            out[f"array{i}"] = rng.normal(size=shape).astype(dtype)
        else:
            out[f"array{i}"] = rng.integers(0, 200, size=shape).astype(dtype)
    return out


class TestQ8Contract:
    @settings(**SETTINGS)
    @given(float_transitions())
    def test_error_bound_and_exact_zeros(self, pair):
        base, new = pair
        codec = create_wire_format("delta-q8")
        codec.decode(codec.encode({"w": base}, channel="c"), channel="c")
        payload = codec.encode({"w": new}, channel="c")
        decoded = codec.decode(payload, channel="c")["w"]
        assert decoded.dtype == new.dtype
        assert decoded.shape == new.shape
        lo = min(float(new.min()), 0.0)
        hi = max(float(new.max()), 0.0)
        scale = (hi - lo) / 255.0
        error = np.abs(decoded.astype(np.float64) - new.astype(np.float64))
        assert float(error.max()) <= scale * 1.000001 + 1e-12
        # exact zeros reconstruct to exact zeros, bitwise
        np.testing.assert_array_equal(decoded[new == 0.0], 0.0)
        # and the lossy path actually engaged unless nothing changed
        if array_hash(new) != array_hash(base):
            meta = payload["codec"].get("w")
            assert meta is None or meta["kind"] == "q8"

    def test_small_nonfinite_and_integer_arrays_ship_raw(self):
        codec = create_wire_format("delta-q8")
        states = [
            {"w": np.zeros(16, dtype=np.float32)},  # below min_size
            {"w": np.full(128, np.nan, dtype=np.float32)},  # non-finite
            {"w": np.arange(128, dtype=np.int64)},  # non-float
        ]
        for state in states:
            codec.invalidate()
            codec.decode(codec.encode(state, channel="c"), channel="c")
            bumped = {"w": state["w"] + 1}
            payload = codec.encode(bumped, channel="c")
            assert payload["codec"] == {}
            decoded = codec.decode(payload, channel="c")["w"]
            assert array_hash(decoded) == array_hash(bumped["w"])


class TestStateTransitions:
    @pytest.mark.parametrize("name", LOSSY)
    @settings(**SETTINGS)
    @given(array_dicts(), array_dicts())
    def test_any_transition_decodes_consistently(self, name, first, second):
        """Added, removed, reshaped, retyped, and unchanged keys all
        decode to the advertised key set with exact dtypes/shapes; the
        protocol's own hash verification guards the values."""
        codec = create_wire_format(name)
        codec.decode(codec.encode(first, channel="t"), channel="t")
        decoded = codec.decode(codec.encode(second, channel="t"), channel="t")
        assert set(decoded) == set(second)
        for key, value in second.items():
            assert decoded[key].dtype == value.dtype, key
            assert decoded[key].shape == value.shape, key
            if value.dtype.kind != "f":
                assert array_hash(decoded[key]) == array_hash(value), key


class TestRespawnResend:
    @pytest.mark.parametrize("name", ("delta",) + LOSSY)
    def test_full_resend_after_receiver_respawn(self, name):
        """A respawned receiver (fresh codec instance, empty cache)
        fails loudly on an incremental payload; after the sender
        invalidates the channel the next send is full and decodes
        bitwise — the exact recovery sequence run_jobs performs on
        WorkerCrashedError."""
        rng = np.random.default_rng(2)
        first = {"w": rng.normal(size=128).astype(np.float32)}
        second = {"w": (first["w"] + rng.normal(size=128) * 0.1).astype(np.float32)}
        sender = create_wire_format(name)
        receiver = create_wire_format(name)
        receiver.decode(sender.encode(first, channel="r"), channel="r")

        respawned = create_wire_format(name)  # lost its cached base
        stale = sender.encode(second, channel="r")
        assert not stale["full"]
        with pytest.raises(WireProtocolError):
            respawned.decode(stale, channel="r")

        sender.invalidate("r")
        resend = sender.encode(second, channel="r")
        assert resend["full"]
        decoded = respawned.decode(resend, channel="r")["w"]
        assert array_hash(decoded) == array_hash(second["w"])


class TestLosslessRegistry:
    def test_metadata_matches_instances(self):
        names = set(lossless_wire_format_names())
        assert names.isdisjoint(LOSSY)
        assert {"json-b64", "delta"} <= names
        if shm_available():
            assert "shm" in names
        for name in WIRE_FORMATS.names():
            if name == "shm" and not shm_available():
                continue
            entry_lossless = WIRE_FORMATS.get(name).metadata.get("lossless", True)
            assert create_wire_format(name).lossless == entry_lossless, name

    @settings(**SETTINGS)
    @given(array_dicts(), array_dicts())
    def test_lossless_formats_stay_bitwise_across_transitions(
        self, first, second
    ):
        for name in lossless_wire_format_names():
            if name == "shm" and not shm_available():
                continue
            codec = create_wire_format(name)
            codec.decode(codec.encode(first, channel="s"), channel="s")
            decoded = codec.decode(codec.encode(second, channel="s"), channel="s")
            assert set(decoded) == set(second), name
            for key, value in second.items():
                assert array_hash(decoded[key]) == array_hash(value), (name, key)
