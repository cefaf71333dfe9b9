"""Property tests: every registered wire format round-trips fleet-style
array payloads bitwise, over random shapes and dtypes, and answers a
randomly damaged payload with ``WireProtocolError`` or a clean decode,
never another exception."""

import copy

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.wire import (
    WireProtocolError,
    array_hash,
    create_wire_format,
    decode_state_payload,
    outstanding_shm_segments,
    shm_available,
)
from repro.registry import WIRE_FORMATS

SETTINGS = dict(max_examples=25, deadline=None)

DTYPES = (np.float32, np.float64, np.int64, np.int32, np.uint8, np.bool_)


def formats_under_test():
    return [
        name
        for name in sorted(WIRE_FORMATS.names())
        if name != "shm" or shm_available()
    ]


@st.composite
def array_dicts(draw):
    """Random state dicts: 0-5 arrays, random dtype, 0-3 dims (0-d and
    zero-size shapes included — the transport edge cases)."""
    n = draw(st.integers(0, 5))
    out = {}
    for i in range(n):
        dtype = draw(st.sampled_from(DTYPES))
        shape = tuple(
            draw(st.lists(st.integers(0, 6), min_size=0, max_size=3))
        )
        seed = draw(st.integers(0, 2**31 - 1))
        rng = np.random.default_rng(seed)
        if dtype is np.bool_:
            value = rng.integers(0, 2, size=shape).astype(dtype)
        elif np.issubdtype(dtype, np.floating):
            value = rng.normal(size=shape).astype(dtype)
        else:
            value = rng.integers(-1000, 1000, size=shape).astype(dtype)
        out[f"array{i}"] = value
    return out


class TestWireRoundTripProperties:
    @settings(**SETTINGS)
    @given(array_dicts())
    def test_every_format_round_trips_bitwise(self, state):
        for name in formats_under_test():
            codec = create_wire_format(name)
            decoded = codec.decode(codec.encode(state, channel="p"), channel="p")
            assert set(decoded) == set(state), name
            for key, value in state.items():
                out = decoded[key]
                assert out.dtype == value.dtype, (name, key)
                assert out.shape == value.shape, (name, key)
                assert array_hash(out) == array_hash(value), (name, key)
        assert outstanding_shm_segments() == []

    @settings(**SETTINGS)
    @given(array_dicts(), array_dicts())
    def test_delta_round_trips_any_state_transition(self, first, second):
        """Whatever the first broadcast held, the second decodes to
        exactly the second state — added, removed, reshaped, and
        unchanged keys all included."""
        codec = create_wire_format("delta")
        codec.decode(codec.encode(first, channel="q"), channel="q")
        decoded = codec.decode(codec.encode(second, channel="q"), channel="q")
        assert set(decoded) == set(second)
        for key, value in second.items():
            assert decoded[key].dtype == value.dtype, key
            assert decoded[key].shape == value.shape, key
            assert array_hash(decoded[key]) == array_hash(value), key
        assert outstanding_shm_segments() == []


#: What a damaged payload field may hold instead (``_DELETE`` removes it).
_DELETE = object()
REPLACEMENTS = (
    None, 0, -1, 2**70, 1.5, float("nan"), True, "", "x", "<f4", "|O", "<q9",
    [], [-1], [0, 2**62], {}, {"a": 1}, _DELETE,
)
BASE_STATE = {
    "w": np.linspace(-1, 1, 216, dtype=np.float32).reshape(8, 3, 3, 3),
    "b": np.arange(16, dtype=np.float64),
    "n": np.asarray(3, dtype=np.int64),
    "e": np.zeros((0, 4), dtype=np.float32),
}


def _paths(value, prefix=()):
    """Every (nested) key path of a JSON-ish payload."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


class TestMalformedPayloadProperties:
    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from(formats_under_test()),
        st.booleans(),
        st.booleans(),
        st.lists(
            st.tuples(st.integers(0, 10**6), st.sampled_from(REPLACEMENTS)),
            min_size=1,
            max_size=2,
        ),
    )
    def test_damage_is_a_named_error(self, name, incremental, by_wire_key, damage):
        sender, receiver = create_wire_format(name), create_wire_format(name)
        sent = [sender.encode(BASE_STATE, channel="d")]
        if incremental:
            receiver.decode(sent[0], channel="d")
            moved = dict(BASE_STATE, w=BASE_STATE["w"] * 2, b=BASE_STATE["b"] + 1)
            sent.append(sender.encode(moved, channel="d"))
        payload = copy.deepcopy(sent[-1])
        for pick, replacement in damage:
            paths = list(_paths(payload))
            *parents, key = paths[pick % len(paths)]
            holder = payload
            for parent in parents:
                holder = holder[parent]
            if replacement is _DELETE:
                del holder[key]
            else:
                holder[key] = copy.deepcopy(replacement)
        try:
            (decode_state_payload if by_wire_key else receiver.decode)(payload)
        except WireProtocolError:
            pass
        finally:
            for staged in sent:
                sender.release(staged)
        assert outstanding_shm_segments() == []
