"""The fleet engine: N device Sessions coordinated by a server.

:class:`FleetCoordinator` simulates a device fleet learning from
private streams with periodic model synchronization — the setting the
source paper targets (many edge devices adapting on-device) scaled out
to the ROADMAP's production framing.  One *round* runs these phases,
one :class:`FleetCoordinator` method each:

1. **cast** — the client sampler and the fault plan pick the sampled,
   active, dropped, late and crashing devices;
2. **stage** — pick the pool and codec, build one payload per device;
3. **dispatch** — local training: every active device advances its
   own :class:`~repro.session.Session` by ``~1/rounds`` of its stream.
   Devices are independent jobs fanned out through
   :func:`repro.experiments.parallel.run_jobs` (the same engine under
   ``run_sweep``), so ``workers > 1`` runs them in parallel processes
   with results bitwise-identical to the serial order;
4. **collect** — decode the replies into device states and reports;
5. **aggregate** — the registered aggregator
   (:mod:`repro.fleet.aggregators`) folds the per-device model arrays
   into a new global model (or declines, for ``local-only``);
6. **broadcast** — the global model overwrites every device's encoder
   and projector arrays (optimizer moments and buffers stay local);
7. **evaluate** — the global model takes a training-free kNN probe
   on fixed pools, giving the per-round accuracy column;
8. **record** — the stats row, the timing record and the metrics.

Device state crosses rounds (and process boundaries) as the
``Session.state_dict()`` payload, with the array dict encoded by a
pluggable, bitwise-lossless ``WIRE_FORMATS`` codec
(:mod:`repro.experiments.wire`: ``json-b64`` reference, zero-copy
``shm``, content-hash ``delta``) — so a fleet of one ``fedavg`` device
is bitwise-identical to a plain single-device Session run under every
wire format, and coordinator checkpoints
(:meth:`FleetCoordinator.save_checkpoint` / ``resume``) continue a
fleet mid-run with bitwise-identical results.  Parallel rounds reuse a
persistent :mod:`~repro.experiments.pool` worker pool with sticky
device→worker routing, which is what lets the ``delta`` format rebuild
Sessions from just the broadcast-changed arrays each round; per-round
the fan-out's :class:`~repro.experiments.parallel.JobTimings` record
lands in :attr:`FleetCoordinator.timings` (never in fingerprints).

Population-scale rounds change only the cast, not the contract: when
``FleetConfig.participants`` is set, a registered ``CLIENT_SAMPLERS``
rule picks K of N devices from the coordinator's checkpointed RNG;
a seeded :class:`~repro.fleet.faults.FaultPlan` then drops, delays
(past ``round_deadline_s``, buffering the report with a staleness
stamp for ``fedavg-async``), or crashes sampled devices — all
deterministically replayable and resumable.  With no sampler and no
fault plan the round loop is the plain synchronous path above, and a
fleet of one stays bitwise-identical to a single Session.

Every argument is validated eagerly at construction with per-field
error messages (nothing fails inside the first round).
"""

from __future__ import annotations

import itertools
import math
import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.core.framework import (
    MODEL_PREFIXES,
    load_model_slice,
    model_slice,
    model_slice_from,
)
from repro.device.cost_model import DEVICE_PROFILES, iteration_compute_cost
from repro.data.scenarios import canonical_scenario
from repro.experiments.config import StreamExperimentConfig
from repro.experiments.parallel import (
    JobResults,
    JobTimings,
    result_fingerprint,
    run_jobs,
)
from repro.experiments import pool as pool_module
from repro.experiments.pool import WorkerPool, get_worker_pool
from repro.experiments.wire import (
    WireFormat,
    WireProtocolError,
    create_wire_format,
    decode_array,
    decode_state_payload,
    default_wire_format,
    encode_array,
    get_wire_format,
    resolve_wire_format,
)
from repro.fleet.aggregators import (
    Aggregator,
    DeviceRoundReport,
    create_aggregator,
)
from repro.fleet.faults import FaultPlan
from repro.fleet.sampling import ClientSampler, create_client_sampler
from repro.fleet.spec import DeviceSpec, FleetConfig
from repro.nn.backend import use_backend
from repro.nn.serialization import (
    Layout,
    check_arrays,
    check_json,
    check_version,
    read_checkpoint,
    save_state,
    strip_prefix,
)
from repro.obs import (
    absorb_worker_telemetry,
    collect_worker_telemetry,
    metrics,
    metrics_enabled,
    use_metrics,
)
from repro.obs.trace import set_clock, trace_span
from repro.registry import (
    AGGREGATORS,
    BACKENDS,
    CLIENT_SAMPLERS,
    POLICIES,
    UnknownComponentError,
)
from repro.session import (
    Session,
    StreamRunResult,
    _nan_if_none,
    _none_if_nan,
    build_components,
    check_generator_state,
    check_session_meta,
    check_session_state,
    checked_config,
    config_from_dict,
    config_to_dict,
)
from repro.train.knn import KnnProbe

__all__ = [
    "DevicePlan",
    "DeviceRoundStats",
    "FleetRoundStats",
    "FleetRunResult",
    "FleetCoordinator",
    "MODEL_PREFIXES",
]

#: Bumped whenever the fleet checkpoint layout changes incompatibly.
FLEET_CHECKPOINT_VERSION = 1

#: Lazy-interval ladder searched when a device declares a compute
#: budget (None = eager scoring; see DeviceSpec.compute_budget_mj).
_BUDGET_LAZY_LADDER: Tuple[Optional[int], ...] = (None, 2, 4, 8, 16, 32, 64)

#: Per-process coordinator counter: makes delta channels unique across
#: coordinator instances that share the persistent worker pool.
_FLEET_COUNTER = itertools.count()


#: The JSON shape of a fleet checkpoint's ``meta``
#: (:meth:`FleetCoordinator.state_dict`; see
#: :func:`repro.nn.serialization.check_json`).  Checkpoints that predate
#: the population fields lack the ``?`` entries.
_FLEET_META = {
    "config": "an object",
    "eval_points": "an integer",
    "label_fraction": "a number",
    "round": "an integer",
    "seen": ["an integer"],
    "history": [
        {
            "round_index": "an integer",
            "devices": [
                {
                    "device": "a string",
                    "knn_accuracy": "a number",
                    "buffer_diversity": "a number",
                    "samples": "an integer",
                    "loss": ("a number", None),
                }
            ],
            "global_knn_accuracy": ("a number", None),
            "synchronized": "a boolean",
            "participants?": (["an integer"], None),
            "dropped?": (["an integer"], None),
            "late?": (["an integer"], None),
        }
    ],
    "device_results": [("an object", None)],
    "device_meta": [("an object", None)],
    "has_global": "a boolean",
    "global_version?": "an integer",
    "pending?": [
        {
            "device": "a string",
            "device_index": "an integer",
            "weight": "a number",
            "knn_accuracy": "a number",
            "dispatch_version": "an integer",
            "dispatch_round": "an integer",
            "arrival_round": "an integer",
        }
    ],
    "sampler?": ({"rng": "an object", "state": "an object"}, None),
}


def _check_fleet_meta(meta: Dict[str, Any]) -> None:
    """Raise :class:`ValueError` naming the first value of a fleet
    checkpoint's ``meta`` that a resumed run cannot use: a missing
    entry, a value of the wrong JSON kind, a config without a fleet or
    one :func:`~repro.session.checked_config` rejects, an out-of-range
    count or device index, a per-device list whose length is not the
    roster's, a device state :func:`~repro.session.check_session_meta`
    rejects, or a sampler generator state numpy rejects."""
    check_json(meta, _FLEET_META)
    config = checked_config(meta["config"], "meta['config']")
    if config.fleet is None:
        raise ValueError("meta['config'] has no fleet")
    if meta["eval_points"] < 1:
        raise ValueError(f"meta['eval_points'] must be >= 1, got {meta['eval_points']}")
    if not 0.0 < meta["label_fraction"] <= 1.0:
        raise ValueError(
            f"meta['label_fraction'] must be in (0, 1], got {meta['label_fraction']}"
        )
    num = len(config.fleet.devices)
    for name in ("seen", "device_results", "device_meta"):
        if len(meta[name]) != num:
            raise ValueError(f"meta[{name!r}] has {len(meta[name])} entries for {num} devices")
    for index, device_meta in enumerate(meta["device_meta"]):
        if device_meta is not None:
            check_session_meta(device_meta, f"meta['device_meta'][{index}]")
    for index, entry in enumerate(meta.get("pending", ())):
        if not 0 <= entry["device_index"] < num:
            raise ValueError(
                f"meta['pending'][{index}]['device_index'] is {entry['device_index']}, "
                f"not one of the {num} devices"
            )
    if meta.get("sampler") is not None:
        check_generator_state(meta["sampler"]["rng"], "meta['sampler']['rng']")


def _check_fleet_checkpoint(meta: Dict[str, Any], arrays: Dict[str, np.ndarray]) -> None:
    """:meth:`FleetCoordinator.resume`'s check: the ``meta`` values
    (:func:`_check_fleet_meta`), then each device's stream state and
    every array.  A device's ``device{i}/*`` arrays must fit its fresh
    learner (:func:`~repro.session.check_session_state`); ``global/*``
    (when ``has_global``) and each ``pending{j}/*`` must be a model
    slice of the fleet's config."""
    _check_fleet_meta(meta)
    layout: Layout = {}
    for index, device_meta in enumerate(meta["device_meta"]):
        if device_meta is not None:
            where = f"meta['device_meta'][{index}]"
            for key, shape in (check_session_state(device_meta, where) or {}).items():
                layout[f"device{index}/{key}"] = shape
    slices = ["global/"] if meta["has_global"] else []
    slices += [f"pending{index}/" for index in range(len(meta.get("pending", ())))]
    if slices:
        base = config_from_dict(meta["config"]).with_(fleet=None, aggregator=None)
        comp = build_components(base)
        for key, value in model_slice_from(comp.encoder, comp.projector).items():
            layout.update({prefix + key: np.shape(value) for prefix in slices})
    check_arrays(arrays, layout)


def _device_round_worker(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Run one device for one round (module-level so every
    multiprocessing start method can import it).

    A ``None`` state starts the device fresh from its config; otherwise
    the session continues from the ``Session.state_dict()`` payload.
    ``payload["wire"]`` names the WIRE_FORMATS codec the state's array
    dict was encoded with (None = the raw in-process representation);
    ``payload["response_wire"]`` names the codec for the reply.  Every
    codec is lossless, so all paths are bitwise-identical (the
    serial/parallel equivalence tests compare exactly this).  The
    worker decodes through the per-process singleton codec, so
    channel-stateful formats (``delta``) keep their caches across the
    rounds of a sticky worker's devices.

    ``payload["global_overlay"]``, if present, carries the current
    global model as a ``{key: encode_array(value)}`` table — a device
    sampled into the fleet for the first time after a broadcast starts
    from the global model rather than from scratch: the table is
    decoded into :meth:`Session.with_initial_learner`, so the job
    builds one session and runs one kNN readout.  ``inject_crash`` is
    the chaos harness's crash fault: honored only inside a pool worker
    process (never in the parent), it kills the process exactly the
    way a real device crash would, exercising respawn + serial-re-run
    recovery.
    """
    if payload.get("inject_crash") and pool_module.IN_POOL_WORKER:
        # A FaultPlan crash: die the hard way (no cleanup, no
        # exception) so the parent sees a genuine WorkerCrashedError.
        os._exit(86)
    state = payload["state"]
    wire_name = payload.get("wire")
    response_wire = payload.get("response_wire")
    channel = payload.get("channel")
    if state is None:
        session = (
            Session(config_from_dict(payload["config"]), policy=payload["policy"])
            .with_eval_points(payload["eval_points"])
            .with_label_fraction(payload["label_fraction"])
            .with_lazy_interval(payload["lazy_interval"])
            .with_score_momentum(payload["score_momentum"])
        )
        overlay = payload.get("global_overlay")
        if overlay is not None:
            # First participation after a broadcast: the fresh learner
            # adopts the global model arrays before its first step, in
            # this same session (optimizer moments, buffer, counters
            # and RNGs start fresh).
            session.with_initial_learner(
                {key: decode_array(spec) for key, spec in overlay.items()}
            )
    else:
        if wire_name is not None:
            state = {
                "meta": state["meta"],
                "learner": get_wire_format(wire_name).decode(
                    state["learner"], channel=channel
                ),
            }
        session = Session.from_state_dict(state)
    result = session.run(stop_after=payload["stop_after"])
    out_state = session.state_dict()
    if wire_name is not None and channel is not None:
        # This process now holds the device's post-round arrays — the
        # base the sender diffs the next broadcast against.
        get_wire_format(wire_name).note_received(channel, out_state["learner"])
    if response_wire is not None:
        out = {
            "state": {
                "meta": out_state["meta"],
                "learner": get_wire_format(response_wire).encode(
                    out_state["learner"]
                ),
            },
            "result": result.to_dict(),
            "encoded": True,
        }
    else:
        out = {"state": out_state, "result": result.to_dict(), "encoded": False}
    # Telemetry this worker process recorded during the round piggybacks
    # on the reply (absent on the in-parent serial/fallback path, where
    # metrics already land in the parent registry directly); the
    # coordinator pops it before the result dict is parsed, so it can
    # never reach a fingerprint.
    telemetry = collect_worker_telemetry()
    if telemetry is not None:
        out["_telemetry"] = telemetry
    return out


# ----------------------------------------------------------------------
# Round bookkeeping.
# ----------------------------------------------------------------------
class _Cast(NamedTuple):
    """One round's cast: ``active`` and ``dropped`` split ``sampled``;
    ``late`` and ``crashing`` are active devices."""

    sampled: List[int]
    active: List[int]
    dropped: List[int]
    late: List[int]
    crashing: set


@dataclass
class DeviceRoundStats:
    """One device's contribution to one round of the fleet table."""

    device: str
    knn_accuracy: float
    buffer_diversity: float
    samples: int
    loss: float

    def to_dict(self) -> Dict[str, Any]:
        return {
            "device": self.device,
            "knn_accuracy": self.knn_accuracy,
            "buffer_diversity": self.buffer_diversity,
            "samples": self.samples,
            "loss": _none_if_nan(self.loss),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "DeviceRoundStats":
        return cls(
            device=data["device"],
            knn_accuracy=float(data["knn_accuracy"]),
            buffer_diversity=float(data["buffer_diversity"]),
            samples=int(data["samples"]),
            loss=_nan_if_none(data["loss"]),
        )


@dataclass
class FleetRoundStats:
    """One row of the per-round fleet table.

    ``devices`` report their *local* models (measured before the
    broadcast); ``global_knn_accuracy`` scores the aggregated model —
    for ``local-only`` rounds (``synchronized`` False) it is the mean
    of the device accuracies instead (``NaN`` when nobody trained).

    ``participants`` / ``dropped`` / ``late`` record the population
    round's cast: the sampled device indices, the subset the fault
    plan dropped, and the stragglers whose reports were buffered past
    the deadline.  All three are ``None`` on plain synchronous rounds
    (no sampling, no fault plan), keeping pre-population payloads and
    fingerprints byte-identical.
    """

    round_index: int
    devices: List[DeviceRoundStats]
    global_knn_accuracy: float
    synchronized: bool
    participants: Optional[List[int]] = None
    dropped: Optional[List[int]] = None
    late: Optional[List[int]] = None

    @property
    def mean_device_accuracy(self) -> float:
        if not self.devices:
            return float("nan")
        return float(np.mean([d.knn_accuracy for d in self.devices]))

    def to_dict(self) -> Dict[str, Any]:
        payload = {
            "round_index": self.round_index,
            "devices": [d.to_dict() for d in self.devices],
            "global_knn_accuracy": _none_if_nan(self.global_knn_accuracy),
            "synchronized": self.synchronized,
        }
        if self.participants is not None:
            payload["participants"] = list(self.participants)
        if self.dropped is not None:
            payload["dropped"] = list(self.dropped)
        if self.late is not None:
            payload["late"] = list(self.late)
        return payload

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FleetRoundStats":
        participants = data.get("participants")
        dropped = data.get("dropped")
        late = data.get("late")
        return cls(
            round_index=int(data["round_index"]),
            devices=[DeviceRoundStats.from_dict(d) for d in data["devices"]],
            global_knn_accuracy=_nan_if_none(data["global_knn_accuracy"]),
            synchronized=bool(data["synchronized"]),
            participants=None if participants is None else [int(i) for i in participants],
            dropped=None if dropped is None else [int(i) for i in dropped],
            late=None if late is None else [int(i) for i in late],
        )


@dataclass
class FleetRunResult:
    """Outcome of a (possibly partial) fleet run.

    ``wire_format`` and ``timings`` describe *how* the run executed
    (transport + per-round stage seconds); they are intentionally
    excluded from :meth:`fingerprint`, which must be identical across
    serial, parallel, and every wire format.
    """

    config: StreamExperimentConfig
    aggregator: str
    device_names: List[str]
    rounds: List[FleetRoundStats]
    device_results: List[StreamRunResult]
    final_global_knn_accuracy: float
    wire_format: Optional[str] = None
    timings: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def mean_device_knn_accuracy(self) -> float:
        """Mean final-round per-device (local model) kNN accuracy."""
        return self.rounds[-1].mean_device_accuracy

    def fingerprint(self) -> Dict[str, Any]:
        """Deterministic payload: everything except wall-clock timing.

        Serial and ``workers > 1`` fleet runs of the same config must
        produce equal fingerprints (the fleet analogue of
        :func:`repro.experiments.parallel.result_fingerprint`).
        """
        config = config_to_dict(self.config)
        # Telemetry is observation only: whether metrics were enabled
        # (config.obs) must never distinguish otherwise-identical runs.
        config["obs"] = None
        return {
            "config": config,
            "aggregator": self.aggregator,
            "device_names": list(self.device_names),
            "rounds": [r.to_dict() for r in self.rounds],
            "device_results": [result_fingerprint(r) for r in self.device_results],
            "final_global_knn_accuracy": _none_if_nan(self.final_global_knn_accuracy),
        }


@dataclass(frozen=True)
class DevicePlan:
    """One device's fully resolved execution plan.

    What a :class:`~repro.fleet.spec.DeviceSpec` becomes after eager
    validation: canonical names, inherited fields filled in, the
    compute budget turned into a lazy interval, and the per-round step
    count.  Exposed read-only via :attr:`FleetCoordinator.plans` (the
    ``fleet`` experiment builds its single-device baseline from
    ``plans[0]``).
    """

    name: str
    config: StreamExperimentConfig
    policy: str
    lazy_interval: Optional[int]
    steps_per_round: int


# ----------------------------------------------------------------------
# The coordinator.
# ----------------------------------------------------------------------
class FleetCoordinator:
    """Runs rounds of local training + aggregation over a device fleet.

    Parameters
    ----------
    config:
        A :class:`StreamExperimentConfig` whose ``fleet`` field holds
        the :class:`~repro.fleet.spec.FleetConfig` (device roster +
        round count) and whose ``aggregator`` field names the
        aggregation rule (``None`` selects ``fedavg``).  Both ride the
        config, so they serialize into fleet checkpoints and sweep
        payloads like the backend and scenario selections.
    eval_points, label_fraction:
        Forwarded to every device Session (probe schedule over the
        device's *whole* stream, not per round).
    workers:
        Device jobs per round are fanned over this many processes via
        :func:`repro.experiments.parallel.run_jobs` (reusing the
        persistent worker pool, with sticky device→worker routing);
        results are bitwise-identical to ``workers=1``.
    wire_format:
        ``WIRE_FORMATS`` codec for device state crossing the process
        boundary (``json-b64``, ``shm``, ``delta``, or a plugin).
        ``None`` defers to the ``REPRO_WIRE_FORMAT`` environment
        variable, then to the default (``delta``) for parallel rounds
        and the raw in-process representation for ``workers=1``.  An
        *explicitly selected* format is exercised even at ``workers=1``
        — every codec is lossless, so results never depend on this
        knob (the fleet-of-1 identity tests run exactly that way).

    All fields are validated here, eagerly, with per-field messages —
    a misconfigured fleet never reaches the first round.
    """

    def __init__(
        self,
        config: StreamExperimentConfig,
        *,
        eval_points: int = 1,
        label_fraction: float = 1.0,
        workers: int = 1,
        wire_format: Optional[str] = None,
    ) -> None:
        if config.fleet is None:
            raise ValueError(
                "config.fleet must be set to run a fleet (build a "
                "FleetConfig of DeviceSpecs, or use FleetCoordinator.build)"
            )
        if eval_points < 1:
            raise ValueError(f"eval_points must be >= 1, got {eval_points}")
        if not 0.0 < label_fraction <= 1.0:
            raise ValueError(
                f"label_fraction must be in (0, 1], got {label_fraction}"
            )
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")

        aggregator_name = config.aggregator if config.aggregator is not None else "fedavg"
        try:
            aggregator_name = AGGREGATORS.get(aggregator_name).name
        except UnknownComponentError as exc:
            raise ValueError(f"config.aggregator: {exc}") from exc
        try:
            resolved_wire = resolve_wire_format(wire_format)
        except UnknownComponentError as exc:
            raise ValueError(f"wire_format: {exc}") from exc
        sampler_name = config.fleet.sampler
        if sampler_name is None and config.fleet.participants is not None:
            sampler_name = "uniform"
        if sampler_name is not None:
            try:
                sampler_name = CLIENT_SAMPLERS.get(sampler_name).name
            except UnknownComponentError as exc:
                raise ValueError(f"config.fleet.sampler: {exc}") from exc

        base = config.with_(fleet=None, aggregator=None)
        plans: List[DevicePlan] = []
        canonical_specs: List[DeviceSpec] = []
        for index, spec in enumerate(config.fleet.devices):
            plan, canonical = self._plan_device(index, spec, base, config.fleet.rounds)
            plans.append(plan)
            canonical_specs.append(canonical)

        # Store the fully canonicalized selection back on the config so
        # checkpoints and payloads carry canonical names only.
        self.config = config.with_(
            fleet=FleetConfig(
                devices=tuple(canonical_specs),
                rounds=config.fleet.rounds,
                participants=config.fleet.participants,
                sampler=sampler_name,
                round_deadline_s=config.fleet.round_deadline_s,
                fault_plan=config.fleet.fault_plan,
            ),
            aggregator=aggregator_name,
        )
        self.aggregator_name = aggregator_name
        self._base_config = base
        self._plans = plans
        self._eval_points = int(eval_points)
        self._label_fraction = float(label_fraction)
        self._workers = int(workers)
        self._aggregator: Aggregator = create_aggregator(aggregator_name)
        # transport: the resolved codec selection (None = pick per
        # round), the sender-side codec instance (built lazily), a
        # process-unique channel prefix so delta caches of concurrent
        # coordinators sharing one worker pool can never collide, and
        # the per-device worker generations the delta invalidation
        # tracks across respawns.
        self._wire_selection = resolved_wire
        self._wire: Optional[WireFormat] = None
        self._wire_name: Optional[str] = None
        self._channel_prefix = f"fleet-{os.getpid()}-{next(_FLEET_COUNTER)}"
        self._worker_generations: Dict[int, int] = {}
        self._timings: List[Dict[str, Any]] = []
        # live run state
        num = len(plans)
        self._round = 0
        self._device_states: List[Optional[Dict[str, Any]]] = [None] * num
        self._last_results: List[Optional[Dict[str, Any]]] = [None] * num
        self._seen: List[int] = [0] * num
        self._global_state: Optional[Dict[str, np.ndarray]] = None
        self._history: List[FleetRoundStats] = []
        self._eval_pool: Optional[tuple] = None
        self._on_broadcast: List[Any] = []
        # population state: the client sampler (participants K < N),
        # its coordinator-owned checkpointed RNG, the chaos schedule,
        # the global model version counter (staleness clock), and late
        # reports buffered past the round deadline.
        fleet_cfg = self.config.fleet
        assert fleet_cfg is not None
        self._participants = fleet_cfg.participants
        self._sampler: Optional[ClientSampler] = None
        self._sampler_rng: Optional[np.random.Generator] = None
        if self._participants is not None:
            assert sampler_name is not None
            self._sampler = create_client_sampler(sampler_name)
            self._sampler_rng = np.random.default_rng(
                [0x5A3B1E7, int(self._base_config.seed)]
            )
        fault_plan = fleet_cfg.fault_plan
        self._fault_plan: Optional[FaultPlan] = (
            fault_plan if fault_plan is not None and not fault_plan.is_noop else None
        )
        self._deadline = fleet_cfg.round_deadline_s
        self._population = self._sampler is not None or self._fault_plan is not None
        self._global_version = 0
        self._pending: List[Dict[str, Any]] = []
        self._force_full: set = set()

    # -- construction helpers -------------------------------------------
    @classmethod
    def build(
        cls,
        config: StreamExperimentConfig,
        devices: int | Sequence[DeviceSpec] = 3,
        rounds: int = 2,
        aggregator: str = "fedavg",
        **kwargs: Any,
    ) -> "FleetCoordinator":
        """Convenience constructor: set the fleet fields and validate.

        ``devices`` is either a device count (uniform specs) or an
        explicit spec roster.
        """
        fleet = (
            FleetConfig.uniform(devices, rounds=rounds)
            if isinstance(devices, int)
            else FleetConfig(devices=tuple(devices), rounds=rounds)
        )
        return cls(config.with_(fleet=fleet, aggregator=aggregator), **kwargs)

    def _plan_device(
        self,
        index: int,
        spec: DeviceSpec,
        base: StreamExperimentConfig,
        rounds: int,
    ) -> Tuple[DevicePlan, DeviceSpec]:
        """Resolve one spec into an executable plan (eager validation)."""
        where = f"config.fleet.devices[{index}]"
        try:
            policy = POLICIES.get(spec.policy).name
        except UnknownComponentError as exc:
            raise ValueError(f"{where}.policy: {exc}") from exc
        scenario = spec.scenario if spec.scenario is not None else base.scenario
        try:
            scenario = canonical_scenario(scenario)
        except (UnknownComponentError, ValueError) as exc:
            raise ValueError(f"{where}.scenario: {exc}") from exc
        backend = spec.backend if spec.backend is not None else base.backend
        if spec.backend is not None:
            try:
                backend = BACKENDS.get(spec.backend).name
            except UnknownComponentError as exc:
                raise ValueError(f"{where}.backend: {exc}") from exc
        if spec.profile not in DEVICE_PROFILES:
            raise ValueError(
                f"{where}.profile: unknown device profile {spec.profile!r}; "
                f"known: {', '.join(sorted(DEVICE_PROFILES))}"
            )
        seed = spec.seed if spec.seed is not None else base.seed + index
        total = (
            spec.total_samples if spec.total_samples is not None else base.total_samples
        )
        try:
            device_config = base.with_(
                scenario=scenario,
                backend=backend,
                seed=seed,
                total_samples=total,
            )
        except ValueError as exc:
            raise ValueError(f"{where}: {exc}") from exc
        lazy_interval = self._resolve_lazy_interval(where, spec, device_config)
        name = spec.name if spec.name is not None else f"device{index}"
        canonical = DeviceSpec(
            policy=policy,
            scenario=spec.scenario and scenario,
            backend=spec.backend and backend,
            seed=spec.seed,
            total_samples=spec.total_samples,
            profile=spec.profile,
            compute_budget_mj=spec.compute_budget_mj,
            lazy_interval=spec.lazy_interval,
            name=spec.name,
        )
        plan = DevicePlan(
            name=name,
            config=device_config,
            policy=policy,
            lazy_interval=lazy_interval,
            steps_per_round=max(1, math.ceil(device_config.iterations / rounds)),
        )
        return plan, canonical

    @staticmethod
    def _resolve_lazy_interval(
        where: str, spec: DeviceSpec, device_config: StreamExperimentConfig
    ) -> Optional[int]:
        """Turn a per-iteration energy budget into a lazy interval.

        Walks the lazy-interval ladder (eager, 2, 4, ..., 64) and picks
        the first point whose per-iteration train+scoring energy on the
        device's profile fits ``compute_budget_mj`` — the
        :mod:`repro.device.cost_model` Table I analysis applied per
        device.  Purely a function of the config, so plans (and
        therefore fleets) stay deterministic.
        """
        if spec.lazy_interval is not None:
            return spec.lazy_interval
        if spec.compute_budget_mj is None:
            return None
        profile = DEVICE_PROFILES[spec.profile]
        # Shape-only throwaway build: flop counts depend on architecture
        # alone, and the scratch RngRegistry never touches device state.
        comp = build_components(device_config)
        image_size = comp.dataset.image_shape[1]
        cost = float("inf")
        for interval in _BUDGET_LAZY_LADDER:
            report = iteration_compute_cost(
                profile,
                comp.encoder,
                comp.projector,
                image_size,
                device_config.buffer_size,
                lazy_interval=interval,
            )
            cost = report.energy_train_mj + report.energy_scoring_lazy_mj
            if cost <= spec.compute_budget_mj:
                return interval
        raise ValueError(
            f"{where}.compute_budget_mj: {spec.compute_budget_mj} mJ per "
            f"iteration cannot be met on profile {spec.profile!r} even at "
            f"lazy interval {_BUDGET_LAZY_LADDER[-1]} "
            f"(cheapest iteration needs {cost:.3f} mJ)"
        )

    # -- introspection --------------------------------------------------
    @property
    def fleet(self) -> FleetConfig:
        """The canonicalized fleet description."""
        assert self.config.fleet is not None
        return self.config.fleet

    @property
    def plans(self) -> Tuple[DevicePlan, ...]:
        """The resolved per-device execution plans (read-only)."""
        return tuple(self._plans)

    @property
    def device_names(self) -> List[str]:
        return [plan.name for plan in self._plans]

    @property
    def rounds_completed(self) -> int:
        return self._round

    @property
    def timings(self) -> List[Dict[str, Any]]:
        """One record per round: ``round``, ``wire`` and the round's
        :class:`JobTimings` fields.  Pure instrumentation: never part of
        fingerprints or checkpoints."""
        return [dict(entry) for entry in self._timings]

    @property
    def wire_format(self) -> Optional[str]:
        """The resolved wire-format selection (None = per-round pick)."""
        return self._wire_selection

    @property
    def global_model_state(self) -> Optional[Dict[str, np.ndarray]]:
        """The current global model arrays (None before the first
        synchronizing aggregation)."""
        if self._global_state is None:
            return None
        return {key: value.copy() for key, value in self._global_state.items()}

    def on_broadcast(self, fn: Any) -> None:
        """Register ``fn(model_state)`` to run after every synchronizing
        broadcast, with a copy of the new global model arrays
        (``encoder/*`` + ``projector/*``).

        Local-only rounds (no aggregation) do not fire.  This is how
        the serving tier tracks the fleet: a
        :meth:`repro.serve.ModelRegistry.attach` subscription publishes
        each broadcast as a new model version (docs/SERVE.md).
        Subscribers run synchronously inside the round, in registration
        order, and must not raise.
        """
        self._on_broadcast.append(fn)

    # -- execution ------------------------------------------------------
    def run(self, rounds: Optional[int] = None) -> FleetRunResult:
        """Run ``rounds`` more rounds (default: all remaining).

        Returns the cumulative :class:`FleetRunResult`; call again (or
        checkpoint/resume in between) to continue — results are
        bitwise-identical to an uninterrupted run.
        """
        if rounds is not None and rounds < 1:
            # 0 is rejected rather than being a no-op: before the first
            # round it would leave nothing for result() to report.
            raise ValueError(f"rounds must be >= 1, got {rounds}")
        remaining = self.fleet.rounds - self._round
        count = remaining if rounds is None else min(rounds, remaining)
        # config.obs gates coordinator-side metrics exactly like a
        # Session run gates its own (None defers to the process default).
        with use_metrics(self.config.obs):
            for _ in range(count):
                self._run_round()
        return self.result()

    def _channel(self, device_index: int) -> str:
        """The device's transport channel id (delta cache key)."""
        return f"{self._channel_prefix}/device{device_index}"

    def _fallback_payload(
        self, device_index: int, payload: Dict[str, Any]
    ) -> Dict[str, Any]:
        """A standalone payload for the in-parent serial re-run of a
        crashed device job: raw state, no wire round trip (the crashed
        worker's channel caches are gone, so a delta payload could not
        decode here).

        The device is marked for a full resend next round: whatever
        channel cache its sticky worker held is no longer trustworthy
        after a mid-round crash or transport-state retry."""
        self._force_full.add(device_index)
        raw = None if payload["state"] is None else self._device_states[device_index]
        return dict(
            payload, state=raw, wire=None, response_wire=None, inject_crash=False
        )

    def _run_round(self) -> None:
        """One fleet round: the phases in order, wrapped in the
        ``fleet.round`` trace span with the logical round clock and
        timed into the ``fleet.round_seconds`` histogram."""
        set_clock(round=self._round)
        with trace_span("fleet.round"):
            start = time.perf_counter()
            cast = self._cast()
            pool, wire_name, wire = self._transport(cast.active)
            serialize_start = time.perf_counter()
            payloads = self._stage(cast, wire_name, wire)
            serialize_s = time.perf_counter() - serialize_start
            outputs = self._dispatch(payloads, cast.active, pool, wire)
            merge_start = time.perf_counter()
            reports, devices = self._collect(cast, outputs, wire)
            new_global = (
                self._aggregator.aggregate(self._global_state, reports)
                if reports
                else None
            )
            timings = outputs.timings
            timings.serialize_s = serialize_s
            timings.merge_s = time.perf_counter() - merge_start  # decode + aggregate
            synchronized = self._broadcast(new_global)
            accuracy = self._evaluate(devices)
            self._record(cast, devices, accuracy, synchronized, wire_name, timings)
            if metrics_enabled():
                metrics().histogram("fleet.round_seconds").observe(
                    time.perf_counter() - start
                )

    def _cast(self) -> _Cast:
        """Cast: who trains, who drops, who straggles.  Every draw is
        either from the checkpointed sampler RNG or a stateless
        fault_rng derivation, so an interrupted run resumes (and a
        plan+seed replays) with the identical cast."""
        num = len(self._plans)
        round_index = self._round
        fault_plan = self._fault_plan
        if self._sampler is not None:
            assert self._sampler_rng is not None and self._participants is not None
            sampled = list(
                self._sampler.sample(
                    round_index, num, self._participants, self._sampler_rng
                )
            )
        else:
            sampled = list(range(num))
        if fault_plan is None:
            return _Cast(sampled, sampled, [], [], set())
        cast = _Cast(sampled, [], [], [], set())
        for i in sampled:
            if fault_plan.drops(round_index, i):
                cast.dropped.append(i)
                continue
            cast.active.append(i)
            if fault_plan.crashes(round_index, i):
                cast.crashing.add(i)
            if self._deadline is not None and fault_plan.delay(i) > self._deadline:
                cast.late.append(i)
        return cast

    def _transport(
        self, active: List[int]
    ) -> Tuple[Optional[WorkerPool], Optional[str], Optional[WireFormat]]:
        """Stage, part one: the round's pool, wire-format name and
        sender codec (built lazily, reused across rounds so delta hash
        state survives).

        An explicitly chosen wire format is always exercised (the
        fleet-of-1 identity hook); otherwise state is encoded exactly
        when it crosses a process boundary, with the default codec.
        Lossless codecs never affect results; the lossy delta codecs
        trade their documented tolerance for bandwidth.  The pool is
        sized for the whole fleet (not this round's participants) so
        sticky device -> worker routing stays stable across sampled
        rounds.
        """
        workers = min(self._workers, len(self._plans))
        pool = get_worker_pool(workers) if workers > 1 and active else None
        wire_name = self._wire_selection
        if wire_name is None and pool is not None:
            wire_name = default_wire_format()
        if wire_name is None:
            return pool, None, None
        if self._wire_name != wire_name:
            self._wire = create_wire_format(wire_name)
            self._wire_name = wire_name
        wire = self._wire

        # Channel-stateful codecs (delta) diff against what the sticky
        # worker's process holds; if that slot was respawned since the
        # device's last round (or the device has never run), or the
        # device's last round ended in a serial-fallback re-run
        # (_force_full), invalidate so this round ships the full state.
        generations = pool.generations() if pool is not None else []
        for i in active:
            generation = generations[pool.sticky_worker(i)] if pool is not None else -1
            if self._worker_generations.get(i) != generation or i in self._force_full:
                wire.invalidate(self._channel(i))
                self._worker_generations[i] = generation
        self._force_full.difference_update(active)
        return pool, wire_name, wire

    def _stage(
        self, cast: _Cast, wire_name: Optional[str], wire: Optional[WireFormat]
    ) -> List[Dict[str, Any]]:
        """Stage, part two: one payload per active device, summing the
        broadcast volume in the same pass."""
        response_wire = wire.response_format if wire is not None else None
        # Per-codec broadcast volume: approximate encoded array bytes
        # against the raw in-process footprint (the compression-ratio
        # gauge).  Raw rounds ship nothing over a codec, so both stay 0.
        count_bytes = wire is not None and metrics_enabled()
        bytes_sent = raw_bytes = 0
        overlay: Optional[Dict[str, Any]] = None
        payloads = []
        for i in cast.active:
            plan = self._plans[i]
            state = self._device_states[i]
            entry: Dict[str, Any] = {
                "state": None,
                "wire": wire_name,
                "response_wire": response_wire,
                "channel": self._channel(i),
                "stop_after": plan.steps_per_round,
            }
            if state is None:
                entry.update(
                    config=config_to_dict(plan.config),
                    policy=plan.policy,
                    eval_points=self._eval_points,
                    label_fraction=self._label_fraction,
                    lazy_interval=plan.lazy_interval,
                    score_momentum=0.0,
                )
                if self._global_state is not None:
                    # First participation after a broadcast: start from
                    # the global model, not from scratch (one lossless
                    # table per round, shared by every fresh device).
                    if overlay is None:
                        overlay = {
                            key: encode_array(value)
                            for key, value in self._global_state.items()
                        }
                    entry["global_overlay"] = overlay
            elif wire is None:
                entry["state"] = state
            else:
                learner = wire.encode(state["learner"], channel=entry["channel"])
                entry["state"] = {"meta": state["meta"], "learner": learner}
                if count_bytes:
                    bytes_sent += wire.payload_nbytes(learner)
                    raw_bytes += sum(
                        np.asarray(value).nbytes for value in state["learner"].values()
                    )
            if i in cast.crashing:
                entry["inject_crash"] = True
            payloads.append(entry)
        if bytes_sent:
            registry = metrics()
            registry.counter("fleet.bytes_sent", wire=wire_name).inc(bytes_sent)
            registry.gauge("fleet.compression_ratio", wire=wire_name).set(
                raw_bytes / bytes_sent
            )
        return payloads

    def _dispatch(
        self,
        payloads: List[Dict[str, Any]],
        active: List[int],
        pool: Optional[WorkerPool],
        wire: Optional[WireFormat],
    ) -> JobResults:
        """Dispatch: the device jobs through ``run_jobs`` — on ``pool``
        with sticky device -> worker routing, else serially in-process.
        """
        try:
            return run_jobs(
                _device_round_worker,
                payloads,
                workers=1 if pool is None else pool.size,
                sticky_keys=active,
                pool=pool,
                refresh=lambda job, payload: self._fallback_payload(
                    active[job], payload
                ),
                retry_on=(WireProtocolError,),
            )
        finally:
            if wire is not None:
                # Backstop for payloads no worker ever decoded (crash
                # mid-round): idempotently release staged resources
                # (shm segments) so nothing can leak.
                for payload in payloads:
                    staged = payload.get("state")
                    if staged is not None and payload.get("wire") is not None:
                        wire.release(staged["learner"])

    def _collect(
        self, cast: _Cast, outputs: JobResults, wire: Optional[WireFormat]
    ) -> Tuple[List[DeviceRoundReport], List[DeviceRoundStats]]:
        """Collect: each reply becomes the device's new state, its round
        stats, and its report (a straggler's is buffered instead); the
        matured stragglers' reports follow."""
        round_index = self._round
        reports: List[DeviceRoundReport] = []
        devices: List[DeviceRoundStats] = []
        for i, output in zip(cast.active, outputs):
            plan = self._plans[i]
            # Worker-recorded telemetry merges into the parent registry
            # (and trace) before the result payload is parsed — the
            # cross-process collection path, fingerprint-invisible.
            absorb_worker_telemetry(output.pop("_telemetry", None))
            state = output["state"]
            if output["encoded"]:
                learner = decode_state_payload(state["learner"])
                state = {"meta": state["meta"], "learner": learner}
            if wire is not None:
                # Sender bookkeeping: the worker's channel cache now
                # holds exactly these arrays (delta's next-round base).
                wire.note_sent(self._channel(i), state["learner"])
            result = StreamRunResult.from_dict(output["result"])
            seen = int(state["learner"]["seen_inputs"])
            samples = seen - self._seen[i]
            self._seen[i] = seen
            self._device_states[i] = state
            self._last_results[i] = output["result"]
            knn = float(result.info["final_knn_accuracy"])
            model_state = model_slice(state["learner"])
            if i in cast.late:
                # A straggler: its update arrives int(delay / deadline)
                # rounds from now and joins aggregation then, weighted
                # down by the staleness it accrued (DESIGN.md §13).
                assert self._fault_plan is not None and self._deadline is not None
                rounds_late = max(1, int(self._fault_plan.delay(i) // self._deadline))
                self._pending.append(
                    {
                        "device": plan.name,
                        "device_index": i,
                        "model_state": model_state,
                        "weight": float(samples),
                        "knn_accuracy": knn,
                        "dispatch_version": self._global_version,
                        "dispatch_round": round_index,
                        "arrival_round": round_index + rounds_late,
                    }
                )
            else:
                reports.append(
                    DeviceRoundReport(
                        device=plan.name,
                        model_state=model_state,
                        weight=float(samples),
                        knn_accuracy=knn,
                    )
                )
            devices.append(
                DeviceRoundStats(
                    device=plan.name,
                    knn_accuracy=knn,
                    buffer_diversity=float(result.buffer_class_diversity),
                    samples=samples,
                    loss=float(result.final_loss),
                )
            )
        return reports + self._matured_reports(), devices

    def _matured_reports(self) -> List[DeviceRoundReport]:
        """Buffered straggler reports whose simulated arrival round has
        come join this round's aggregation, stamped with the number of
        global versions they missed."""
        round_index = self._round
        matured = [p for p in self._pending if p["arrival_round"] <= round_index]
        if not matured:
            return []
        self._pending = [p for p in self._pending if p["arrival_round"] > round_index]
        matured.sort(key=lambda p: (p["dispatch_round"], p["device_index"]))
        return [
            DeviceRoundReport(
                device=p["device"],
                model_state=p["model_state"],
                weight=p["weight"],
                knn_accuracy=p["knn_accuracy"],
                info={
                    "staleness": float(self._global_version - p["dispatch_version"])
                },
            )
            for p in matured
        ]

    def _broadcast(self, new_global: Optional[Dict[str, np.ndarray]]) -> bool:
        """Broadcast: the aggregated model becomes the global one, is
        copied into every device ever sampled, and goes to the
        :meth:`on_broadcast` subscribers.  Returns whether the round
        synchronized."""
        if new_global is None:
            return False
        self._global_state = {
            key: np.asarray(value).copy() for key, value in new_global.items()
        }
        self._global_version += 1
        for state in self._device_states:
            if state is None:  # a device never yet sampled
                continue
            for key, value in self._global_state.items():
                state["learner"][key] = value.copy()
        for fn in self._on_broadcast:
            # Each subscriber gets its own copy: publishing must not
            # alias (or let anyone mutate) the live global arrays.
            fn({key: value.copy() for key, value in self._global_state.items()})
        return True

    def _evaluate(self, devices: List[DeviceRoundStats]) -> float:
        """Evaluate: the round's global accuracy."""
        if self._global_state is not None:
            return self._evaluate_global()
        if devices:  # local-only: report the fleet mean instead
            return float(np.mean([d.knn_accuracy for d in devices]))
        return float("nan")  # nobody trained and no global model exists yet

    def _record(
        self,
        cast: _Cast,
        devices: List[DeviceRoundStats],
        accuracy: float,
        synchronized: bool,
        wire_name: Optional[str],
        timings: JobTimings,
    ) -> None:
        """Record: the stats row, the timing record (mirrored into the
        ``jobs.*`` counters) and the round metrics; then advance."""
        population = self._population
        self._history.append(
            FleetRoundStats(
                round_index=self._round,
                devices=devices,
                global_knn_accuracy=accuracy,
                synchronized=synchronized,
                participants=sorted(cast.sampled) if population else None,
                dropped=cast.dropped if population else None,
                late=cast.late if population else None,
            )
        )
        wire_label = wire_name if wire_name is not None else "raw"
        self._timings.append(
            {"round": self._round, "wire": wire_label, **timings.to_dict()}
        )
        timings.record("fleet")
        if metrics_enabled():
            registry = metrics()
            registry.counter("fleet.rounds").inc()
            registry.histogram("fleet.sampled_k").observe(len(cast.sampled))
            if cast.dropped:
                registry.counter("fleet.dropouts").inc(len(cast.dropped))
            if cast.late:
                registry.counter("fleet.stragglers").inc(len(cast.late))
            if cast.crashing:
                registry.counter("fleet.crashes").inc(len(cast.crashing))
            registry.gauge("fleet.pending_depth").set(len(self._pending))
        self._round += 1

    def _evaluate_global(self) -> float:
        """Training-free kNN accuracy of the global model on fixed pools.

        The evaluation components are rebuilt deterministically from the
        base config (their RngRegistry is independent of every device),
        and ``knn_predict`` draws no RNG — so this readout never
        perturbs checkpoint/resume or serial/parallel bitwiseness.
        """
        assert self._global_state is not None
        if self._eval_pool is None:
            with use_backend(self._base_config.backend):
                comp = build_components(self._base_config)
                train_x, train_y = comp.dataset.make_split(
                    self._base_config.probe_train_per_class,
                    comp.rngs.get("probe-train-pool"),
                )
                test_x, test_y = comp.dataset.make_split(
                    self._base_config.probe_test_per_class,
                    comp.rngs.get("probe-test-pool"),
                )
            self._eval_pool = (comp, train_x, train_y, test_x, test_y)
        comp, train_x, train_y, test_x, test_y = self._eval_pool
        load_model_slice(self._global_state, comp.encoder, comp.projector)
        with use_backend(self._base_config.backend):
            accuracy = KnnProbe(comp.encoder).score(
                train_x,
                train_y,
                test_x,
                test_y,
                num_classes=comp.dataset.num_classes,
            )
        return float(accuracy)

    def result(self) -> FleetRunResult:
        """The cumulative run outcome (requires >= 1 completed round)."""
        if not self._history:
            raise RuntimeError("no rounds have run yet: call run() first")
        device_results = [
            StreamRunResult.from_dict(payload)
            for payload in self._last_results
            if payload is not None
        ]
        return FleetRunResult(
            config=self.config,
            aggregator=self.aggregator_name,
            device_names=self.device_names,
            rounds=list(self._history),
            device_results=device_results,
            final_global_knn_accuracy=self._history[-1].global_knn_accuracy,
            wire_format=self._timings[-1]["wire"] if self._timings else None,
            timings=self.timings,
        )

    # -- checkpoint / resume --------------------------------------------
    def state_dict(self) -> Dict[str, Any]:
        """The full fleet state: coordinator counters, the global model,
        buffered straggler reports, and every device's Session state.

        Restoring it (:meth:`load_state_dict` / :meth:`resume`) and
        running the remaining rounds is bitwise-identical to an
        uninterrupted run.
        """
        arrays: Dict[str, np.ndarray] = {}
        for i, state in enumerate(self._device_states):
            if state is None:
                continue
            for key, value in state["learner"].items():
                arrays[f"device{i}/{key}"] = value
        if self._global_state is not None:
            for key, value in self._global_state.items():
                arrays[f"global/{key}"] = value
        for index, entry in enumerate(self._pending):
            for key, value in entry["model_state"].items():
                arrays[f"pending{index}/{key}"] = value
        meta = {
            "version": FLEET_CHECKPOINT_VERSION,
            "config": config_to_dict(self.config),
            "eval_points": self._eval_points,
            "label_fraction": self._label_fraction,
            "round": self._round,
            "seen": list(self._seen),
            "history": [stats.to_dict() for stats in self._history],
            "device_results": list(self._last_results),
            "device_meta": [
                state["meta"] if state is not None else None
                for state in self._device_states
            ],
            "has_global": self._global_state is not None,
            "global_version": self._global_version,
            # each buffered report but its model arrays (pending{j}/*)
            "pending": [
                {key: value for key, value in entry.items() if key != "model_state"}
                for entry in self._pending
            ],
        }
        if self._sampler is not None:
            assert self._sampler_rng is not None
            meta["sampler"] = {
                # PCG64 state is a nest of plain ints: strict-JSON safe.
                "rng": self._sampler_rng.bit_generator.state,
                "state": self._sampler.state_dict(),
            }
        return {"meta": meta, "arrays": arrays}

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        """Restore the exact state written by :meth:`state_dict`."""
        meta = state["meta"]
        check_version(meta, FLEET_CHECKPOINT_VERSION, "fleet checkpoint")
        config = config_from_dict(meta["config"])
        if config != self.config:
            raise ValueError(
                "fleet checkpoint was written for a different config; "
                "construct the coordinator from the checkpoint "
                "(FleetCoordinator.resume) or with the matching config"
            )
        arrays = {key: np.asarray(value).copy() for key, value in state["arrays"].items()}
        num = len(self._plans)
        self._round = int(meta["round"])
        self._seen = [int(v) for v in meta["seen"]]
        self._history = [
            FleetRoundStats.from_dict(entry) for entry in meta["history"]
        ]
        self._last_results = [
            dict(entry) if entry is not None else None
            for entry in meta["device_results"]
        ]
        self._device_states = []
        for i in range(num):
            device_meta = meta["device_meta"][i]
            if device_meta is None:
                self._device_states.append(None)
                continue
            learner = strip_prefix(arrays, f"device{i}/")
            self._device_states.append({"meta": device_meta, "learner": learner})
        if meta["has_global"]:
            self._global_state = strip_prefix(arrays, "global/")
        else:
            self._global_state = None
        # Population state.  Pre-population checkpoints lack these keys
        # (their runs never used them): the global version falls back
        # to the number of synchronizing rounds in the history.
        self._global_version = int(
            meta.get(
                "global_version",
                sum(1 for stats in self._history if stats.synchronized),
            )
        )
        self._pending = []
        for index, entry in enumerate(meta.get("pending", ())):
            self._pending.append(
                {
                    "device": entry["device"],
                    "device_index": int(entry["device_index"]),
                    "model_state": strip_prefix(arrays, f"pending{index}/"),
                    "weight": float(entry["weight"]),
                    "knn_accuracy": float(entry["knn_accuracy"]),
                    "dispatch_version": int(entry["dispatch_version"]),
                    "dispatch_round": int(entry["dispatch_round"]),
                    "arrival_round": int(entry["arrival_round"]),
                }
            )
        sampler_meta = meta.get("sampler")
        if self._sampler is not None and sampler_meta is not None:
            assert self._sampler_rng is not None
            self._sampler_rng.bit_generator.state = sampler_meta["rng"]
            self._sampler.load_state_dict(sampler_meta["state"])
        self._force_full = set()
        self._eval_pool = None  # rebuilt deterministically on demand

    def save_checkpoint(self, path: str) -> str:
        """Write the fleet state to ``path`` (a single ``.npz``; the
        suffix is appended when missing) and return the path written."""
        state = self.state_dict()
        return save_state(state["arrays"], path, meta=state["meta"])

    @classmethod
    def resume(
        cls,
        path: str,
        *,
        workers: int = 1,
        wire_format: Optional[str] = None,
    ) -> "FleetCoordinator":
        """Rebuild a coordinator from :meth:`save_checkpoint` output;
        :meth:`run` continues the remaining rounds bitwise-identically.

        ``workers`` and ``wire_format`` are execution choices, not
        state, so they are chosen fresh at resume time (neither
        parallelism nor the transport codec ever changes results).  A
        defective file raises one :class:`ValueError` naming ``path``
        (:func:`repro.nn.serialization.read_checkpoint`), and so does a
        ``meta`` value the fleet's own check rejects (each device's
        state is checked as a Session checkpoint's ``meta``), or a
        stream state or set of arrays that does not fit the fleet
        (:func:`_check_fleet_checkpoint`).
        """
        meta, arrays = read_checkpoint(
            path,
            kind="fleet checkpoint",
            version=FLEET_CHECKPOINT_VERSION,
            fields=("device_meta",),
            check=_check_fleet_checkpoint,
        )
        coordinator = cls(
            config_from_dict(meta["config"]),
            eval_points=int(meta["eval_points"]),
            label_fraction=float(meta["label_fraction"]),
            workers=workers,
            wire_format=wire_format,
        )
        coordinator.load_state_dict({"meta": meta, "arrays": arrays})
        return coordinator
