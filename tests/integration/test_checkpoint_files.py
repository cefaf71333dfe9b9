"""Checkpoint files are outside bytes: their layout is pinned, and every
defective file — its archive, its ``meta`` values, its stream state or
its arrays — reaches ``Session.resume`` and ``FleetCoordinator.resume``
as one ``ValueError`` naming the path."""

import json
import re

import numpy as np
import pytest

from repro.experiments.config import StreamExperimentConfig
from repro.fleet import DeviceSpec, FleetConfig, FleetCoordinator
from repro.fleet.faults import DeviceFaults, FaultPlan
from repro.session import Session

CONFIG = StreamExperimentConfig(
    dataset="cifar10",
    image_size=8,
    stc=8,
    total_samples=64,
    buffer_size=8,
    encoder_widths=(8, 16),
    projection_dim=8,
    probe_train_per_class=4,
    probe_test_per_class=2,
    probe_epochs=2,
    seed=0,
)

#: Three of four devices per round, device 1 a straggler past the
#: deadline: after two rounds the checkpoint holds device, global and
#: pending (buffered straggler) arrays.
FLEET_CONFIG = CONFIG.with_(
    fleet=FleetConfig(
        devices=tuple(DeviceSpec() for _ in range(4)),
        rounds=3,
        participants=3,
        sampler="round-robin",
        round_deadline_s=1.0,
        fault_plan=FaultPlan(
            seed=1, overrides=((1, DeviceFaults(straggler_delay_s=2.5)),)
        ),
    ),
    aggregator="fedavg-async",
)


@pytest.fixture(scope="module")
def checkpoints(tmp_path_factory):
    """One checkpoint file of each kind, written mid-run."""
    root = tmp_path_factory.mktemp("checkpoints")
    session = Session(CONFIG, "contrast-scoring").with_eval_points(2)
    session.run(stop_after=3)
    fleet = FleetCoordinator(FLEET_CONFIG)
    fleet.run(rounds=2)
    return {
        "session": session.save_checkpoint(str(root / "session")),
        "fleet": fleet.save_checkpoint(str(root / "fleet")),
    }


def _entries(path):
    with np.load(path, allow_pickle=False) as archive:
        return {key: archive[key].copy() for key in archive.files}


class TestLayout:
    """The file layout written since checkpoint version 1."""

    def test_session_checkpoint_layout(self, checkpoints):
        with np.load(checkpoints["session"], allow_pickle=False) as archive:
            files = list(archive.files)
            raw_meta = archive["meta"]
            assert raw_meta.shape == () and raw_meta.dtype.kind == "U"
            meta = json.loads(str(raw_meta))
        assert files[0] == "meta"
        assert meta["version"] == 1
        assert meta["policy"] == "contrast-scoring"
        arrays = files[1:]
        assert all(key.startswith("learner/") for key in arrays)
        learner = {key[len("learner/") :] for key in arrays}
        assert {"iteration", "seen_inputs", "history", "buffer_labels"} <= learner
        assert {key.split("/")[0] for key in learner} >= {
            "encoder",
            "projector",
            "optimizer",
            "buffer",
        }

    def test_fleet_checkpoint_layout(self, checkpoints):
        with np.load(checkpoints["fleet"], allow_pickle=False) as archive:
            files = list(archive.files)
            meta = json.loads(str(archive["meta"]))
        assert files[0] == "meta"
        assert meta["version"] == 1
        groups = {re.match(r"(device\d+|global|pending\d+)/", key).group(1) for key in files[1:]}
        devices = {g for g in groups if g.startswith("device")}
        pending = {g for g in groups if g.startswith("pending")}
        assert "global" in groups and devices and pending
        assert len(pending) == len(meta["pending"])
        assert {f"device{i}" for i, m in enumerate(meta["device_meta"]) if m} == devices


LOADERS = {
    "session": lambda path: Session.resume(path),
    "fleet": lambda path: FleetCoordinator.resume(path),
}


def _truncated(path, entries):
    with open(path, "rb") as fh:
        data = fh.read()
    return data[: len(data) // 2]


def _with_meta(meta):
    def write(path, entries):
        entries = dict(entries)
        if meta is None:
            del entries["meta"]
        else:
            entries["meta"] = np.array(meta)
        return entries

    return write


DEFECTS = {
    "truncated": (_truncated, "truncated or corrupt archive"),
    "not-zip": (lambda path, entries: b"\x00not a checkpoint\n" * 8, "not an .npz"),
    "empty": (lambda path, entries: b"", "the file is empty"),
    "no-meta": (_with_meta(None), "no 'meta' entry"),
    "meta-not-json": (_with_meta("{version: 1"), "'meta' is not JSON"),
    "meta-not-object": (_with_meta("[1, 2]"), "'meta' is a JSON list, not an object"),
}


@pytest.mark.parametrize("loader", sorted(LOADERS))
@pytest.mark.parametrize("defect", sorted(DEFECTS))
def test_defective_file_is_one_named_error(checkpoints, tmp_path, loader, defect):
    make, detail = DEFECTS[defect]
    source = checkpoints[loader]
    target = str(tmp_path / f"{defect}.npz")
    content = make(source, _entries(source))
    if isinstance(content, bytes):
        with open(target, "wb") as fh:
            fh.write(content)
    else:
        np.savez(target, **content)
    with pytest.raises(ValueError) as excinfo:
        LOADERS[loader](target)
    message = str(excinfo.value)
    assert target in message
    assert detail in message


@pytest.mark.parametrize(
    "loader, other, kind",
    [("session", "fleet", "Session checkpoint"), ("fleet", "session", "fleet checkpoint")],
)
def test_other_kind_of_checkpoint_is_named(checkpoints, loader, other, kind):
    path = checkpoints[other]
    with pytest.raises(ValueError, match=f"not a {kind}") as excinfo:
        LOADERS[loader](path)
    assert path in str(excinfo.value)


def test_other_version_names_the_path(checkpoints, tmp_path):
    for loader, source in checkpoints.items():
        entries = _entries(source)
        meta = json.loads(str(entries["meta"]))
        meta["version"] = 2
        entries["meta"] = np.array(json.dumps(meta))
        target = str(tmp_path / f"{loader}-v2.npz")
        np.savez(target, **entries)
        with pytest.raises(ValueError, match="checkpoint version 2") as excinfo:
            LOADERS[loader](target)
        assert target in str(excinfo.value)


def _set(*keys_and_value):
    """A meta edit: set the entry at ``keys`` to ``value``."""
    *keys, last, value = keys_and_value

    def edit(meta):
        for key in keys:
            meta = meta[key]
        meta[last] = value

    return edit


def _delete(key):
    def edit(meta):
        del meta[key]

    return edit


def _append_accuracy(meta):
    meta["curve"]["accuracies"].append(0.5)


def _break_first_rng(meta):
    name = sorted(meta["rng"])[0]
    meta["rng"][name] = {"bit_generator": "MT19937", "state": {"key": [], "pos": 0}}


#: Session ``meta`` values ``Session.resume`` cannot use, each with the
#: detail its error names.  Through the fleet reader each edit applies
#: to a device's state instead.
SESSION_META_DEFECTS = {
    "config-extra-key": (_set("config", "bogus", 1), "unknown fields 'bogus'"),
    "config-not-object": (_set("config", 5), "['config'] is 5, not an object"),
    "config-field-kind": (
        _set("config", "lr", "fast"),
        "['config']['lr'] is \"fast\", not a number",
    ),
    "config-widths-kind": (
        _set("config", "encoder_widths", 8),
        "['encoder_widths'] is 8, not a list",
    ),
    "config-value": (_set("config", "buffer_size", 1), "buffer_size must be >= 2"),
    "eval-points-string": (
        _set("eval_points", "two"),
        "['eval_points'] is \"two\", not an integer",
    ),
    "eval-points-zero": (_set("eval_points", 0), "['eval_points'] must be >= 1, got 0"),
    "eval-points-bool": (_set("eval_points", True), "is true, not an integer"),
    "policy-unknown": (_set("policy", "nope"), "unknown policy 'nope'"),
    "policy-kind": (_set("policy", 3), "['policy'] is 3, not a string"),
    "lazy-interval-kind": (
        _set("lazy_interval", "2"),
        "['lazy_interval'] is \"2\", not an integer or null",
    ),
    "no-rng": (_delete("rng"), "lacks 'rng'"),
    "rng-state": (_break_first_rng, "is not a PCG64 state"),
    "no-stream": (_delete("stream"), "lacks 'stream'"),
    "no-curve": (_delete("curve"), "lacks 'curve'"),
    "curve-lengths": (_append_accuracy, "seen_inputs but"),
    "diversity-kind": (_set("diversity", ["x"]), "['diversity'][0] is \"x\", not a number"),
    "final-loss-kind": (_set("final_loss", None), "['final_loss'] is null, not a number"),
    "lazy-kind": (_set("lazy", 3), "['lazy'] is 3, not an object or null"),
    "scenario-option-kind": (
        _set("config", "scenario", "bursty(burst_stc=1e400)"),
        "bursty: burst_stc must be an integer, got inf",
    ),
    "stream-empty": (_set("stream", {}), "['stream'] is not the state of a"),
    "stream-position": (
        _set("stream", "position", "x"),
        "(ValueError: invalid literal for int() with base 10: 'x')",
    ),
}


def _first_device_state(meta):
    return next(state for state in meta["device_meta"] if state is not None)


def _first_pending(meta):
    return meta["pending"][0]


#: Fleet ``meta`` values ``FleetCoordinator.resume`` cannot use.
FLEET_META_DEFECTS = {
    "round-string": (_set("round", "two"), "meta['round'] is \"two\", not an integer"),
    "seen-length": (lambda meta: meta["seen"].pop(), "meta['seen'] has 3 entries for 4 devices"),
    "device-meta-length": (
        lambda meta: meta["device_meta"].append(None),
        "meta['device_meta'] has 5 entries for 4 devices",
    ),
    "history-kind": (
        lambda meta: meta["history"][0].update(synchronized="yes"),
        "meta['history'][0]['synchronized'] is \"yes\", not a boolean",
    ),
    "no-has-global": (_delete("has_global"), "meta lacks 'has_global'"),
    "pending-device": (
        lambda meta: _first_pending(meta).update(device_index=9),
        "['device_index'] is 9, not one of the 4 devices",
    ),
    "pending-kind": (
        lambda meta: _first_pending(meta).update(weight="heavy"),
        "['weight'] is \"heavy\", not a number",
    ),
    "sampler-rng": (
        lambda meta: meta["sampler"].update(rng={"bit_generator": "PCG64"}),
        "meta['sampler']['rng'] is not a PCG64 state",
    ),
    "no-fleet": (_set("config", "fleet", None), "meta['config'] has no fleet"),
    "label-fraction": (_set("label_fraction", 0.0), "must be in (0, 1], got 0.0"),
}

META_CASES = (
    [("session", name) for name in sorted(SESSION_META_DEFECTS)]
    + [("fleet", name) for name in sorted(SESSION_META_DEFECTS)]
    + [("fleet", name) for name in sorted(FLEET_META_DEFECTS)]
)


@pytest.mark.parametrize("loader, defect", META_CASES)
def test_defective_meta_value_is_one_named_error(checkpoints, tmp_path, loader, defect):
    """Each defect raises one ``ValueError`` naming the path and the
    value from ``resume`` itself, before anything runs."""
    source = checkpoints[loader]
    entries = _entries(source)
    meta = json.loads(str(entries["meta"]))
    if defect in FLEET_META_DEFECTS and loader == "fleet":
        edit, detail = FLEET_META_DEFECTS[defect]
        edit(meta)
    else:
        edit, detail = SESSION_META_DEFECTS[defect]
        edit(meta if loader == "session" else _first_device_state(meta))
    entries["meta"] = np.array(json.dumps(meta))
    target = str(tmp_path / f"{loader}-{defect}.npz")
    np.savez(target, **entries)
    with pytest.raises(ValueError) as excinfo:
        LOADERS[loader](target)
    message = str(excinfo.value)
    assert message.startswith(f"cannot read checkpoint {target!r}: ")
    assert detail in message
    if loader == "fleet" and defect in SESSION_META_DEFECTS:
        assert "meta['device_meta'][" in message


def test_meta_checks_accept_what_the_writers_write(checkpoints, tmp_path):
    """Undamaged files resume, a fleet whose unsampled device has null
    entries included."""
    Session.resume(checkpoints["session"])
    FleetCoordinator.resume(checkpoints["fleet"])
    fleet = FleetCoordinator(FLEET_CONFIG)
    fleet.run(rounds=1)
    path = fleet.save_checkpoint(str(tmp_path / "fleet-round-1"))
    assert None in json.loads(str(_entries(path)["meta"]))["device_meta"]
    FleetCoordinator.resume(path)


def _learner_prefix(loader, entries):
    """Where a learner's arrays sit: ``learner/``, or the first device
    with a state in a fleet file."""
    if loader == "session":
        return "learner/"
    meta = json.loads(str(entries["meta"]))
    index = next(i for i, state in enumerate(meta["device_meta"]) if state is not None)
    return f"device{index}/"


def _drop(key):
    def edit(entries, prefix):
        del entries[prefix + key]

    return edit


def _put(key, value):
    def edit(entries, prefix):
        entries[prefix + key] = value

    return edit


def _drop_group(group):
    def edit(entries, prefix):
        for key in [key for key in entries if key.startswith(group)]:
            del entries[key]

    return edit


#: Learner arrays ``resume`` cannot use, each with the detail its error
#: names (``{p}`` is the learner's prefix).  Through the fleet reader
#: each edit applies to a device's arrays.
LEARNER_ARRAY_DEFECTS = {
    "model-missing": (
        _drop("encoder/stem_conv.weight"),
        "missing {p}encoder/stem_conv.weight",
    ),
    "model-misshapen": (
        _put("projector/fc2.weight", np.zeros((16, 8), dtype=np.float32)),
        "misshapen {p}projector/fc2.weight (16, 8) (expected (8, 16))",
    ),
    "moment-misshapen": (
        _put("optimizer/m0", np.zeros(3, dtype=np.float32)),
        "misshapen {p}optimizer/m0 (3,) (expected (8, 3, 3, 3))",
    ),
    "buffer-missing": (_drop("buffer/images"), "missing {p}buffer/images"),
    "unexpected": (_put("bogus/extra", np.zeros(3)), "unexpected {p}bogus/extra"),
}

#: Fleet arrays outside any device's learner that ``resume`` rejects.
FLEET_ARRAY_DEFECTS = {
    "no-global": (_drop_group("global/"), "missing global/encoder/stem_conv.weight"),
    "pending-misshapen": (
        lambda entries, prefix: entries.update(
            {"pending0/encoder/stem_bn.gamma": np.zeros(3, dtype=np.float32)}
        ),
        "misshapen pending0/encoder/stem_bn.gamma (3,) (expected (8,))",
    ),
    "stray-group": (
        lambda entries, prefix: entries.update({"device9/iteration": np.array(1)}),
        "unexpected device9/iteration",
    ),
}

ARRAY_CASES = (
    [("session", name) for name in sorted(LEARNER_ARRAY_DEFECTS)]
    + [("fleet", name) for name in sorted(LEARNER_ARRAY_DEFECTS)]
    + [("fleet", name) for name in sorted(FLEET_ARRAY_DEFECTS)]
)


@pytest.mark.parametrize("loader, defect", ARRAY_CASES)
def test_arrays_that_do_not_fit_are_one_named_error(checkpoints, tmp_path, loader, defect):
    """Keys are checked against a freshly built learner (and model
    slice), shapes for the model and the optimizer moments, at
    ``resume`` itself rather than when ``run()`` loads them."""
    source = checkpoints[loader]
    entries = _entries(source)
    prefix = _learner_prefix(loader, entries)
    edit, detail = {**LEARNER_ARRAY_DEFECTS, **FLEET_ARRAY_DEFECTS}[defect]
    edit(entries, prefix)
    target = str(tmp_path / f"{loader}-{defect}.npz")
    np.savez(target, **entries)
    with pytest.raises(ValueError) as excinfo:
        LOADERS[loader](target)
    message = str(excinfo.value)
    assert message.startswith(f"cannot read checkpoint {target!r}: ")
    assert detail.format(p=prefix) in message
