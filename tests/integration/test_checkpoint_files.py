"""Checkpoint files are outside bytes: their layout is pinned, and every
defective file reaches ``Session.resume`` and ``FleetCoordinator.resume``
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
