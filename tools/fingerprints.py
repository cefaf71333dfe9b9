#!/usr/bin/env python3
"""Print one ``name digest`` line per bitwise contract of the library.

    python tools/fingerprints.py

Two trees that keep every contract print identical lines, so running
the tool on a parent checkout and on a change shows whether any
fingerprint moved.  The lines:

* ``stream`` — perfbench's ``stream`` session at seed 101 (its loss
  trace and final kNN accuracy, digested the way perfbench does);
* ``fleet`` — perfbench's ``fleet_config(101, 4)`` run at
  ``workers=1`` over perfbench's wire format (the run fingerprint);
* ``scorer.score`` and ``scorer.features`` — the raw bytes of the
  numpy backend's contrast scores and encoder features of a fixed
  64-image batch;
* ``scenario.<name>`` — the images, labels, final stream state and
  stream-RNG state of every registered scenario, and of
  ``corrupted(bursty(imbalanced))``;
* ``session.straight`` and ``session.resumed`` — a small Session run
  straight through, and the same run split by a checkpoint file and
  resumed.  The two digests are equal when resume is bitwise; the tool
  exits 1 when they differ.

``repro`` is imported from the ``src/`` directory next to this file and
the workload definitions from ``perfbench/``, through names that older
trees have too, so a copy of this file runs on a parent checkout.  BLAS
runs one thread, as in perfbench.  Takes about 15 s on 2 CPUs.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
sys.path.insert(0, os.path.join(ROOT, "src"))

import common  # noqa: E402 - perfbench's helpers; imports no numpy

os.environ.update({name: "1" for name in common.BLAS_THREAD_VARS})
for name in ("REPRO_BACKEND", "REPRO_METRICS", "REPRO_TRACE", "REPRO_WIRE_FORMAT"):
    os.environ.pop(name, None)

import numpy as np  # noqa: E402

SEED = 101
SCENARIO_SAMPLES = 192


def _bytes_digest(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()[:16]


def stream_line() -> str:
    import stream_workload
    from repro.session import Session, build_components

    config = stream_workload.stream_config(SEED)
    losses = []
    result = (
        Session(config, stream_workload.POLICY)
        .with_components(build_components(config))
        .with_eval_points(1)
        .with_lazy_interval(None)
        .on_step(lambda learner, stats: losses.append(stats.loss))
        .run()
    )
    knn = float(result.info["final_knn_accuracy"])
    return common.fingerprint_digest({"losses": losses, "knn": knn})


def fleet_line() -> str:
    import fleet_workload
    from repro.fleet import FleetCoordinator

    coordinator = FleetCoordinator(
        fleet_workload.fleet_config(SEED, 4), workers=1, wire_format=fleet_workload.WIRE
    )
    return common.fingerprint_digest(coordinator.run().fingerprint())


def scorer_lines():
    from repro.experiments.config import default_config
    from repro.nn.backend import use_backend
    from repro.session import build_components

    with use_backend("numpy"):
        comp = build_components(default_config(seed=0))
        rng = np.random.default_rng(64)
        labels = rng.integers(0, comp.dataset.num_classes, size=64)
        images = comp.dataset.sample(labels, rng)
        yield "scorer.score", _bytes_digest(comp.scorer.score(images).tobytes())
        yield "scorer.features", _bytes_digest(comp.scorer.features(images).tobytes())


def scenario_lines():
    from repro.data.datasets import make_dataset
    from repro.data.scenarios import create_scenario
    from repro.registry import SCENARIOS

    dataset = make_dataset("cifar10", image_size=8)
    for name in sorted(SCENARIOS.names()) + ["corrupted(bursty(imbalanced))"]:
        rng = np.random.default_rng(7)
        source = create_scenario(
            name, dataset=dataset, stc=8, rng=rng, total_samples=SCENARIO_SAMPLES
        )
        chunks = []
        for segment in source.segments(16, SCENARIO_SAMPLES):
            chunks += [segment.images.tobytes(), np.asarray(segment.labels).tobytes()]
        for state in (source.state_dict(), rng.bit_generator.state):
            chunks.append(json.dumps(state, sort_keys=True, default=repr).encode())
        yield f"scenario.{name}", _bytes_digest(*chunks)


def session_lines():
    from repro.experiments.config import StreamExperimentConfig
    from repro.experiments.parallel import result_fingerprint
    from repro.session import Session

    config = StreamExperimentConfig(
        dataset="cifar10", image_size=8, stc=8, total_samples=96, buffer_size=8,
        encoder_widths=(8, 16), projection_dim=8, probe_train_per_class=4,
        probe_test_per_class=2, probe_epochs=3, seed=3,
    )

    def session() -> Session:
        return Session(config, "contrast-scoring").with_eval_points(3)

    straight = session().run()
    part = session()
    part.run(stop_after=5)
    with tempfile.TemporaryDirectory() as scratch:
        path = part.save_checkpoint(os.path.join(scratch, "split.npz"))
        resumed = Session.resume(path).run()
    yield "session.straight", common.fingerprint_digest(result_fingerprint(straight))
    yield "session.resumed", common.fingerprint_digest(result_fingerprint(resumed))


def main() -> int:
    digests = {"stream": stream_line(), "fleet": fleet_line()}
    for name, digest in digests.items():
        print(name, digest, flush=True)
    for lines in (scorer_lines(), scenario_lines(), session_lines()):
        for name, digest in lines:
            digests[name] = digest
            print(name, digest, flush=True)
    return int(digests["session.straight"] != digests["session.resumed"])


if __name__ == "__main__":
    sys.exit(main())
