"""Wire formats: registry semantics, bitwise round-trips, the shared
array codec's named errors, shm segment lifecycle (success AND crash
paths), the delta protocol, pinned delta-q8 payload bytes, and the
fleet-level identity contract under every registered codec."""

import base64
import hashlib
import json
import multiprocessing
import os

import numpy as np
import pytest

from repro.experiments.config import StreamExperimentConfig
from repro.experiments.wire import (
    DeltaFormat,
    WIRE_FORMAT_ENV,
    WireProtocolError,
    create_wire_format,
    decode_array,
    decode_state_payload,
    default_wire_format,
    encode_array,
    outstanding_shm_segments,
    resolve_wire_format,
    shm_available,
)
from repro.registry import UnknownComponentError, WIRE_FORMATS
from tests.helpers import MALFORMED_ARRAY_SPECS

needs_shm = pytest.mark.skipif(
    not shm_available(), reason="POSIX shared memory unavailable"
)


def tiny_config(**overrides):
    base = dict(
        dataset="cifar10",
        image_size=8,
        stc=8,
        total_samples=64,
        buffer_size=8,
        encoder_widths=(8, 16),
        encoder_blocks=1,
        projection_dim=8,
        probe_train_per_class=4,
        probe_test_per_class=2,
        probe_epochs=2,
        seed=0,
    )
    base.update(overrides)
    return StreamExperimentConfig(**base)


def sample_state(seed=0):
    """A fleet-payload-shaped array dict covering the tricky dtypes."""
    rng = np.random.default_rng(seed)
    return {
        "conv.weight": rng.normal(size=(8, 3, 3, 3)).astype(np.float32),
        "bn.running_mean": rng.normal(size=16).astype(np.float64),
        "step": np.asarray(42, dtype=np.int64),  # 0-d
        "empty": np.zeros((0, 4), dtype=np.float32),  # zero-size
        "mask": rng.integers(0, 2, size=(5,)).astype(bool),
        "fortran": np.asfortranarray(rng.normal(size=(4, 6)).astype(np.float32)),
        "strided": rng.normal(size=(4, 4))[::2, ::2],  # non-contiguous view
    }


def formats_under_test():
    names = []
    for name in sorted(WIRE_FORMATS.names()):
        if name == "shm" and not shm_available():
            continue
        names.append(name)
    return names


def lossless_formats_under_test():
    """The bitwise-identity contract only covers lossless codecs; the
    lossy delta-q8 codec carries a documented tolerance instead
    (tests/property/test_codec_properties.py)."""
    from repro.experiments.wire import lossless_wire_format_names

    return [n for n in formats_under_test() if n in lossless_wire_format_names()]


class TestRegistry:
    def test_builtins_registered(self):
        assert set(WIRE_FORMATS.names()) == {"json-b64", "shm", "delta", "delta-q8"}

    def test_aliases_resolve(self):
        assert WIRE_FORMATS.get("json").name == "json-b64"
        assert WIRE_FORMATS.get("diff").name == "delta"
        assert WIRE_FORMATS.get("shared-memory").name == "shm"

    def test_unknown_name_suggests(self):
        with pytest.raises(UnknownComponentError, match="delta"):
            WIRE_FORMATS.get("detla")

    def test_resolve_priority_arg_over_env(self, monkeypatch):
        monkeypatch.setenv(WIRE_FORMAT_ENV, "json-b64")
        assert resolve_wire_format("shm" if shm_available() else "delta") != "json-b64"
        assert resolve_wire_format(None) == "json-b64"
        monkeypatch.delenv(WIRE_FORMAT_ENV)
        assert resolve_wire_format(None) is None

    def test_resolve_rejects_unknown_env(self, monkeypatch):
        monkeypatch.setenv(WIRE_FORMAT_ENV, "carrier-pigeon")
        with pytest.raises(UnknownComponentError):
            resolve_wire_format(None)

    def test_default_is_delta(self):
        assert default_wire_format() == "delta"


class TestRoundTrip:
    @pytest.mark.parametrize("name", formats_under_test())
    def test_bitwise_round_trip(self, name):
        state = sample_state()
        codec = create_wire_format(name)
        decoded = codec.decode(codec.encode(state, channel="t"), channel="t")
        assert set(decoded) == set(state)
        for key, value in state.items():
            out = decoded[key]
            assert out.dtype == value.dtype, key
            assert out.shape == value.shape, key
            np.testing.assert_array_equal(out, value)
        assert outstanding_shm_segments() == []

    @pytest.mark.parametrize("name", formats_under_test())
    def test_payload_is_self_describing(self, name):
        state = sample_state(seed=1)
        payload = create_wire_format(name).encode(state)
        assert payload["wire"] == name
        decoded = decode_state_payload(payload)
        np.testing.assert_array_equal(decoded["conv.weight"], state["conv.weight"])

    @pytest.mark.parametrize("name", formats_under_test())
    def test_empty_state_round_trips(self, name):
        codec = create_wire_format(name)
        assert codec.decode(codec.encode({})) == {}
        assert outstanding_shm_segments() == []


class TestArrayCodec:
    def test_spec_layout(self):
        spec = encode_array(np.arange(3, dtype=np.int16).reshape(1, 3))
        assert spec == {
            "dtype": "<i2",
            "shape": [1, 3],
            "data": base64.b64encode(np.arange(3, dtype=np.int16).tobytes()).decode(
                "ascii"
            ),
        }

    def test_reads_str_dtype_spelling(self):
        """Scenario checkpoints written before the shared codec spell
        dtypes ``str(dtype)``; they still decode bitwise."""
        value = np.arange(6, dtype=np.float32).reshape(2, 3)
        spec = dict(encode_array(value), dtype=str(value.dtype))
        assert spec["dtype"] == "float32"
        decoded = decode_array(spec)
        assert decoded.dtype == value.dtype
        np.testing.assert_array_equal(decoded, value)

    def test_decoded_array_is_owned(self):
        decoded = decode_array(encode_array(np.ones(4, dtype=np.float32)))
        assert decoded.flags.owndata and decoded.flags.writeable

    @pytest.mark.parametrize("defect", sorted(MALFORMED_ARRAY_SPECS))
    def test_malformed_spec_is_a_named_error(self, defect):
        payload = {"wire": "json-b64", "arrays": {"x": MALFORMED_ARRAY_SPECS[defect]}}
        with pytest.raises(WireProtocolError, match="array"):
            decode_state_payload(payload)


@needs_shm
class TestShmLifecycle:
    def test_segments_unlinked_after_decode(self):
        codec = create_wire_format("shm")
        payload = codec.encode(sample_state())
        assert payload["segment"] in outstanding_shm_segments()
        codec.decode(payload)
        assert outstanding_shm_segments() == []

    def test_release_is_idempotent_backstop(self):
        codec = create_wire_format("shm")
        payload = codec.encode(sample_state())
        codec.release(payload)  # receiver never decoded (e.g. it crashed)
        codec.release(payload)  # double release must be a no-op
        assert outstanding_shm_segments() == []

    def test_decode_after_unlink_fails_loudly(self):
        codec = create_wire_format("shm")
        payload = codec.encode(sample_state())
        codec.release(payload)
        with pytest.raises(WireProtocolError, match="segment"):
            codec.decode(payload)

    def test_crashed_receiver_leaves_no_segment(self):
        """A worker dying mid-round must not leak the staged segment:
        the sender's release() backstop reclaims it."""
        codec = create_wire_format("shm")
        payload = codec.encode(sample_state())

        def consumer_that_dies(payload):
            os._exit(1)  # simulates a worker crash before decode

        ctx = multiprocessing.get_context()
        proc = ctx.Process(target=consumer_that_dies, args=(payload,))
        proc.start()
        proc.join()
        assert proc.exitcode == 1
        codec.release(payload)
        assert outstanding_shm_segments() == []

    def test_all_empty_payload_has_no_segment(self):
        codec = create_wire_format("shm")
        payload = codec.encode({"empty": np.zeros((0,), dtype=np.float32)})
        assert payload["segment"] is None
        decoded = codec.decode(payload)
        assert decoded["empty"].shape == (0,)


class TestDeltaProtocol:
    def test_second_send_ships_only_changed(self):
        sender = DeltaFormat(inner="json-b64")
        receiver = DeltaFormat(inner="json-b64")
        state = sample_state()
        first = sender.encode(state, channel="d0")
        assert first["full"]
        receiver.decode(first, channel="d0")

        state2 = dict(state)
        state2["conv.weight"] = state["conv.weight"] + 1.0
        second = sender.encode(state2, channel="d0")
        assert not second["full"]
        assert set(second["inner"]["arrays"]) == {"conv.weight"}
        decoded = receiver.decode(second, channel="d0")
        assert set(decoded) == set(state2)
        for key, value in state2.items():
            np.testing.assert_array_equal(decoded[key], value)

    def test_decode_without_base_fails_loudly(self):
        sender = DeltaFormat(inner="json-b64")
        fresh_receiver = DeltaFormat(inner="json-b64")
        state = sample_state()
        sender.encode(state, channel="d1")  # prime the sender
        delta = sender.encode(state, channel="d1")  # hash-identical resend
        with pytest.raises(WireProtocolError, match="no cached base"):
            fresh_receiver.decode(delta, channel="d1")

    def test_invalidate_forces_full_resend(self):
        sender = DeltaFormat(inner="json-b64")
        state = sample_state()
        sender.encode(state, channel="d2")
        sender.invalidate("d2")
        assert sender.encode(state, channel="d2")["full"]

    def test_channels_are_independent(self):
        sender = DeltaFormat(inner="json-b64")
        state = sample_state()
        sender.encode(state, channel="a")
        assert sender.encode(state, channel="b")["full"]

    def test_q8_sender_keeps_hashes_not_arrays(self):
        """A fleet sender holds one channel per device ever sampled, so
        its per-channel state must be content hashes only: no second
        copy of the arrays the receiver holds."""

        def arrays_in(value):
            if isinstance(value, np.ndarray):
                return 1
            if isinstance(value, dict):
                return sum(arrays_in(v) for v in value.values())
            return 0

        sender = WIRE_FORMATS.create("delta-q8", inner="json-b64")
        state = sample_state()
        sender.encode(state, channel="a")
        sender.encode({**state, "conv.weight": state["conv.weight"] * 2}, channel="a")
        sender.note_sent("b", state)
        assert set(sender._sent_hashes) == {"a", "b"}
        assert arrays_in(vars(sender)) == 0

    def test_delta_cannot_nest(self):
        with pytest.raises(ValueError, match="nest"):
            DeltaFormat(inner="delta")


#: sha256 of ``json.dumps(payload, sort_keys=True)`` for the three sends
#: of :meth:`TestPinnedQ8Payloads.test_three_send_digests`, recorded
#: while the sender still kept per-channel reconstruction arrays: q8
#: payloads depend on content hashes only.
Q8_DIGESTS = (
    "67bea396ca3c3b19142bd505004ed2eaa878e754fe13e9d30ab0dcb7ed85a870",
    "1f64788664a359039cef066acb15c9a0f193ea159ac51c3d3b3d50f870c56b99",
    "7de32e2acc483c3bdb4b561537b64919db0305dc9dd7c6e6999819da8816b0f8",
)


class TestPinnedQ8Payloads:
    def test_three_send_digests(self):
        """One channel, three sends: a float array that moves every
        send (quantized after the first), an unchanged float array
        (diffed away), and an int array (shipped raw).  Every value is
        exact in float32, so the bytes are platform-independent."""
        idx = np.arange(256)
        base = (((idx * 37) % 101) - 50).astype(np.float32) / 8
        step = (((idx * 13) % 29) - 14).astype(np.float32) / 16
        frozen = ((idx % 17) - 8).astype(np.float32) / 4
        sender = WIRE_FORMATS.create("delta-q8", inner="json-b64")
        receiver = WIRE_FORMATS.create("delta-q8", inner="json-b64")
        digests = []
        for t in range(3):
            state = {
                "w": base + np.float32(t) * step,
                "frozen": frozen,
                "count": np.arange(6, dtype=np.int64) + 100 * t,
            }
            payload = sender.encode(state, channel="c")
            receiver.decode(payload, channel="c")
            text = json.dumps(payload, sort_keys=True)
            digests.append(hashlib.sha256(text.encode("utf-8")).hexdigest())
            assert sorted(payload["codec"]) == ([] if t == 0 else ["w"])
        assert tuple(digests) == Q8_DIGESTS


class TestFleetIdentity:
    @pytest.mark.parametrize("name", lossless_formats_under_test())
    def test_fleet_of_one_matches_plain_session(self, name):
        """Satellite: a 1-device fleet shipping state through any wire
        format (multi-round, so state round-trips the codec between
        rounds) reproduces a plain Session bitwise."""
        from repro.experiments.parallel import result_fingerprint
        from repro.fleet import FleetConfig, FleetCoordinator
        from repro.session import Session

        config = tiny_config()
        plain = Session(config, "contrast-scoring").with_eval_points(1).run()
        fleet = FleetCoordinator(
            config.with_(
                fleet=FleetConfig.uniform(1, rounds=2), aggregator="fedavg"
            ),
            wire_format=name,
        ).run()
        assert result_fingerprint(fleet.device_results[0]) == result_fingerprint(
            plain
        )
        assert fleet.final_global_knn_accuracy == plain.info["final_knn_accuracy"]
        assert outstanding_shm_segments() == []

    @pytest.mark.parametrize("name", lossless_formats_under_test())
    def test_parallel_identity_under_every_format(self, name):
        from repro.fleet import FleetCoordinator

        config = tiny_config()
        serial = FleetCoordinator.build(config, devices=2, rounds=2, workers=1).run()
        parallel = FleetCoordinator.build(
            config, devices=2, rounds=2, workers=2, wire_format=name
        ).run()
        assert serial.fingerprint() == parallel.fingerprint()
        assert outstanding_shm_segments() == []

    def test_result_records_wire_and_timings(self):
        from repro.fleet import FleetCoordinator

        coordinator = FleetCoordinator.build(
            tiny_config(), devices=2, rounds=1, workers=2, wire_format="json-b64"
        )
        result = coordinator.run()
        assert result.wire_format == "json-b64"
        assert len(result.timings) == 1
        entry = result.timings[0]
        assert entry["wire"] == "json-b64"
        for key in ("serialize_s", "transport_s", "compute_s", "merge_s", "wall_s"):
            assert entry[key] >= 0.0
        # timings never leak into the identity contract
        assert "timings" not in result.fingerprint()

    def test_unknown_wire_format_names_field(self):
        from repro.fleet import FleetCoordinator

        with pytest.raises(ValueError, match="wire_format"):
            FleetCoordinator.build(tiny_config(), devices=1, wire_format="pigeon")
