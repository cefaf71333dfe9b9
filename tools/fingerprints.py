#!/usr/bin/env python3
"""Print one ``name digest`` line per bitwise contract of the library.

    python tools/fingerprints.py
    python tools/fingerprints.py --against REF

Two trees that keep every contract print identical lines.  With
``--against REF`` the tool runs this same file in a temporary
``git worktree`` of the commit ``REF`` and in this tree, each in its own
process, removes the worktree, and prints ``name parent change
same|MOVED`` per digest (a digest only one side printed reads ``-`` on
the other side and MOVED).  The lines:

* ``stream`` — perfbench's ``stream`` session at seed 101 (its loss
  trace and final kNN accuracy, digested the way perfbench does);
* ``fleet`` — perfbench's ``fleet_config(101, 4)`` run at
  ``workers=1`` over perfbench's wire format (the run fingerprint);
* ``fleet.repeat`` — fleets whose devices are sampled again, where a
  ``delta-q8`` send diffs against what its receiver kept (perfbench's
  ``fleet`` samples no device twice): four devices, two sampled per
  round (``uniform``), and a fleet of one, both ``fedavg`` at
  ``workers=1``;
* ``scorer.score`` and ``scorer.features`` — the raw bytes of the
  numpy backend's contrast scores and encoder features of a fixed
  64-image batch;
* ``scenario.<name>`` — the images, labels, final stream state and
  stream-RNG state of every registered scenario, and of
  ``corrupted(bursty(imbalanced))``;
* ``session.straight`` and ``session.resumed`` — a small Session run
  straight through, and the same run split by a checkpoint file and
  resumed.  The two digests are equal when resume is bitwise; the tool
  exits 1 when they differ (with ``--against``: on either side).  A
  moved digest does not change the exit status;
* ``ablation.drift`` and ``ablation.gradient`` — the results of
  ``run_drift_experiment`` (two policies, two phases) and
  ``run_gradient_ablation`` (three probes) on the tiny config of
  ``tests/integration/test_drift_experiment.py``;
* ``serve`` — ``run_serve`` over TCP on a tiny config: every decision's
  fingerprint (cold pass with a mid-stream publish, warm, cache-served
  repeat, replay) and whether the TCP echo matched the repeat pass.

``repro`` is imported from the ``src/`` directory next to this file and
the workload definitions from ``perfbench/``, through names that older
trees have too, so a copy of this file runs on a parent checkout.  BLAS
runs one thread, as in perfbench.  Takes about 10 s on 2 CPUs (twice
that with ``--against``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from typing import Dict, List, NoReturn, Sequence

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


def fleet_repeat_line() -> str:
    from repro.experiments.config import StreamExperimentConfig
    from repro.fleet import DeviceSpec, FleetConfig, FleetCoordinator

    config = StreamExperimentConfig(
        dataset="cifar10", image_size=8, stc=8, total_samples=96, buffer_size=8,
        encoder_widths=(8, 16), encoder_blocks=1, projection_dim=8, probe_train_per_class=4,
        probe_test_per_class=2, probe_epochs=2, seed=0,
    )
    fleets = (
        FleetConfig(
            devices=tuple(DeviceSpec() for _ in range(4)), rounds=6, participants=2,
            sampler="uniform",
        ),
        FleetConfig(devices=(DeviceSpec(),), rounds=4),
    )
    return common.fingerprint_digest([
        FleetCoordinator(
            config.with_(fleet=fleet, aggregator="fedavg"), workers=1, wire_format="delta-q8"
        ).run().fingerprint()
        for fleet in fleets
    ])


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


def ablation_lines():
    from repro.experiments.ablations import run_gradient_ablation
    from repro.experiments.config import StreamExperimentConfig
    from repro.experiments.drift import run_drift_experiment

    config = StreamExperimentConfig(
        dataset="cifar10", image_size=8, stc=8, total_samples=128, buffer_size=8,
        encoder_widths=(8, 16), projection_dim=8, probe_train_per_class=4,
        probe_test_per_class=2, probe_epochs=5, seed=0,
    )
    drift = run_drift_experiment(config, policies=("contrast-scoring", "fifo"), num_phases=2)
    yield "ablation.drift", common.fingerprint_digest(
        [drift.new_classes, drift.overall, drift.old_class_acc, drift.new_class_acc]
    )
    gradient = run_gradient_ablation(config, probes=3, batch=16)
    yield "ablation.gradient", common.fingerprint_digest(
        [gradient.checkpoints, gradient.correlations, gradient.low_score_grad,
         gradient.high_score_grad]
    )


def serve_lines():
    from repro.experiments.config import StreamExperimentConfig
    from repro.experiments.serve import run_serve

    config = StreamExperimentConfig(
        dataset="cifar10", image_size=8, stc=8, total_samples=64, buffer_size=8,
        encoder_widths=(8, 16), projection_dim=8, probe_train_per_class=4,
        probe_test_per_class=2, probe_epochs=1, seed=0,
    )
    result = run_serve(config, transport="tcp")
    yield "serve", common.fingerprint_digest([result.fingerprint(), result.tcp_identical])


def parse_lines(lines: Sequence[str]) -> Dict[str, str]:
    """``{name: digest}`` of the tool's output lines."""
    return dict(line.split() for line in lines if line.strip())


def compare(parent: Dict[str, str], change: Dict[str, str]) -> List[str]:
    """One ``name parent change same|MOVED`` line per name either side
    printed, the parent's order first; a side's missing digest reads
    ``-`` and counts as moved."""
    names = list(parent) + [name for name in change if name not in parent]
    rows = []
    for name in names:
        before, after = parent.get(name, "-"), change.get(name, "-")
        verdict = "same" if before == after != "-" else "MOVED"
        rows.append(f"{name} {before} {after} {verdict}")
    return rows


def resume_differs(digests: Dict[str, str]) -> bool:
    return digests["session.straight"] != digests["session.resumed"]


def _fail(message: str) -> NoReturn:
    """End the tool with status 2: a side could not be run at all."""
    sys.stderr.write(message + "\n")
    raise SystemExit(2)


def _run_side(tree: str) -> Dict[str, str]:
    """The digests this file prints when run from ``tree``'s ``tools/``."""
    script = os.path.join(tree, "tools", "fingerprints.py")
    done = subprocess.run([sys.executable, script], capture_output=True, text=True)
    if done.returncode not in (0, 1):  # 1: resume differs, digests printed
        _fail(f"{done.stderr}{script} exited {done.returncode}")
    return parse_lines(done.stdout.splitlines())


def against(ref: str) -> int:
    """Compare the digests of the commit ``ref`` with this tree's."""
    scratch = tempfile.mkdtemp(prefix="fingerprints-")
    tree = os.path.join(scratch, "ref")
    worktree = ["git", "-C", ROOT, "worktree"]
    try:
        added = subprocess.run(
            worktree + ["add", "--detach", "--quiet", tree, ref], capture_output=True, text=True
        )
        if added.returncode:
            _fail(f"{added.stderr}cannot check out {ref!r}")
        try:
            copy = os.path.join(tree, "tools", "fingerprints.py")
            os.makedirs(os.path.dirname(copy), exist_ok=True)
            shutil.copyfile(os.path.abspath(__file__), copy)
            parent = _run_side(tree)
        finally:
            subprocess.run(worktree + ["remove", "--force", tree], check=False)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    change = _run_side(ROOT)
    for row in compare(parent, change):
        print(row, flush=True)
    return int(resume_differs(parent) or resume_differs(change))


def main() -> int:
    digests = {
        "stream": stream_line(), "fleet": fleet_line(), "fleet.repeat": fleet_repeat_line()
    }
    for name, digest in digests.items():
        print(name, digest, flush=True)
    for lines in (
        scorer_lines(), scenario_lines(), session_lines(), ablation_lines(), serve_lines()
    ):
        for name, digest in lines:
            digests[name] = digest
            print(name, digest, flush=True)
    return int(resume_differs(digests))


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", metavar="REF", help="compare with the commit REF")
    args = parser.parse_args()
    sys.exit(against(args.against) if args.against else main())
