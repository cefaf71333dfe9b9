"""The unified experiment surface: :class:`Session`.

One object owns the full lifecycle of a stream-learning run:

* **building** — components (dataset, encoder, projector, scorer) are
  resolved through the :mod:`repro.registry` registries, so any
  registered plugin policy/dataset/encoder/augment is usable with zero
  edits to ``repro`` internals;
* **running** — ``Session.from_config(config).run()`` executes the
  stage-1 stream loop with periodic stage-2 probes, exactly matching
  :func:`repro.experiments.runner.run_stream_experiment` (which is now
  a thin wrapper over this class);
* **observing** — ``on_step`` / ``on_probe`` / ``on_finish`` lifecycle
  callbacks;
* **checkpointing** — :meth:`Session.save_checkpoint` writes a single
  ``.npz`` capturing model weights, optimizer moments, buffer contents,
  RNG states, and stream counters; :meth:`Session.resume` continues a
  run with bitwise-identical step statistics.

Example
-------
>>> from repro.session import Session
>>> from repro.experiments.config import default_config
>>> result = (
...     Session.from_config(default_config(seed=0))
...     .with_policy("contrast-scoring")
...     .with_eval_points(4)
...     .run()
... )
>>> round(result.final_accuracy, 3)  # doctest: +SKIP
"""

from __future__ import annotations

import functools
import time
import typing
from dataclasses import asdict, dataclass, field, fields
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.framework import MODEL_PREFIXES, OnDeviceContrastiveLearner, StepStats
from repro.core.replacement import ContrastScoringPolicy
from repro.core.scoring import ContrastScorer
from repro.data.scenarios import StreamSource, canonical_scenario, create_scenario
from repro.metrics.curves import LearningCurve
from repro.nn.backend import use_backend
from repro.nn.projection import ProjectionHead
from repro.nn.serialization import (
    Layout,
    check_arrays,
    check_json,
    check_version,
    read_checkpoint,
    save_state,
    strip_prefix,
)
from repro.obs import metrics, metrics_enabled, use_metrics
from repro.obs.trace import set_clock, trace_span
from repro.registry import AUGMENTS, ENCODERS, POLICIES, create_policy
from repro.selection.base import ReplacementPolicy
from repro.train.classifier import evaluate_encoder
from repro.train.knn import KnnProbe
from repro.utils.rng import RngRegistry

if TYPE_CHECKING:
    # Imported lazily at runtime: experiments.__init__ imports runner,
    # which imports this module, so a top-level import would cycle.
    from repro.experiments.config import StreamExperimentConfig

__all__ = [
    "ExperimentComponents",
    "StreamRunResult",
    "Session",
    "build_components",
    "config_to_dict",
    "config_from_dict",
    "checked_config",
    "check_session_meta",
    "check_session_state",
    "check_generator_state",
]

#: Bumped whenever the checkpoint layout changes incompatibly.
CHECKPOINT_VERSION = 1


@dataclass
class ExperimentComponents:
    """The wired-up pieces of one run."""

    dataset: Any
    encoder: Any
    projector: ProjectionHead
    scorer: ContrastScorer
    rngs: RngRegistry


def build_components(config: StreamExperimentConfig) -> ExperimentComponents:
    """Instantiate dataset, encoder, projector, and scorer for a config.

    Every component is resolved by name through :mod:`repro.registry`:
    ``config.dataset`` and ``config.encoder`` may name built-ins or
    plugins registered with ``@register_dataset`` / ``@register_encoder``.

    The width/depth config knobs are *offers*: encoder factories with a
    fixed architecture (``resnet-micro`` etc.) simply don't declare them
    and run at their native shape.  ``config.image_size`` is different —
    ``None`` means "dataset default", so a non-None value is an explicit
    request and :func:`repro.data.datasets.make_dataset` raises if the
    dataset factory cannot honor it.
    """
    from repro.data.datasets import make_dataset

    rngs = RngRegistry(config.seed)
    dataset = make_dataset(config.dataset, image_size=config.image_size)
    encoder = ENCODERS.create(
        config.encoder,
        in_channels=dataset.image_shape[0],
        widths=config.encoder_widths,
        blocks_per_stage=config.encoder_blocks,
        rng=rngs.get("model"),
    )
    projector = ProjectionHead(
        encoder.feature_dim, out_dim=config.projection_dim, rng=rngs.get("model")
    )
    scorer = ContrastScorer(encoder, projector)
    return ExperimentComponents(dataset, encoder, projector, scorer, rngs)


def build_augment(config: StreamExperimentConfig):
    """Resolve the stage-1 strong augmentation through the registry."""
    return AUGMENTS.create(
        config.augment,
        min_crop_scale=config.augment_min_crop,
        jitter_strength=config.augment_jitter,
        grayscale_p=config.augment_grayscale_p,
    )


def _build_run(
    config: StreamExperimentConfig,
    comp: ExperimentComponents,
    policy_name: str,
    lazy_interval: Optional[int],
    score_momentum: float,
) -> Tuple[ReplacementPolicy, OnDeviceContrastiveLearner, StreamSource]:
    """The policy, learner and stream of one run on ``comp``; each draws
    from its own named generator of ``comp.rngs``."""
    rngs = comp.rngs
    policy = create_policy(
        policy_name,
        scorer=comp.scorer,
        capacity=config.buffer_size,
        rng=rngs.get("policy"),
        temperature=config.temperature,
        lazy_interval=lazy_interval,
        score_momentum=score_momentum,
    )
    if not isinstance(policy, ReplacementPolicy):
        raise TypeError(
            f"policy {policy_name!r} built a {type(policy).__name__}, "
            "expected a ReplacementPolicy"
        )
    learner = OnDeviceContrastiveLearner(
        comp.encoder,
        comp.projector,
        policy,
        config.buffer_size,
        rngs.get("augment"),
        temperature=config.temperature,
        lr=config.lr,
        weight_decay=config.weight_decay,
        augment=build_augment(config),
    )
    stream = create_scenario(
        config.scenario,
        dataset=comp.dataset,
        stc=config.stc,
        rng=rngs.get("stream"),
        total_samples=config.total_samples,
    )
    return policy, learner, stream


# ----------------------------------------------------------------------
# Config / result serialization
# ----------------------------------------------------------------------
def config_to_dict(config: StreamExperimentConfig) -> Dict[str, Any]:
    """A JSON-serializable dict round-trippable via :func:`config_from_dict`."""
    out = asdict(config)
    out["encoder_widths"] = list(out["encoder_widths"])
    # asdict() flattens the nested FleetConfig/DeviceSpec dataclasses but
    # keeps the devices tuple; normalize to the strict-JSON shape.
    out["fleet"] = config.fleet.to_dict() if config.fleet is not None else None
    return out


def config_from_dict(data: Dict[str, Any]) -> StreamExperimentConfig:
    """Inverse of :func:`config_to_dict`."""
    from repro.experiments.config import StreamExperimentConfig
    from repro.fleet.spec import FleetConfig

    data = dict(data)
    data["encoder_widths"] = tuple(data["encoder_widths"])
    if data.get("fleet") is not None:
        data["fleet"] = FleetConfig.from_dict(data["fleet"])
    return StreamExperimentConfig(**data)


@functools.lru_cache(maxsize=None)
def _config_shape() -> Dict[str, Any]:
    """The JSON shape of :func:`config_to_dict` output (see
    :func:`repro.nn.serialization.check_json`), read off the config's
    field annotations; every field has a default, so each may be absent."""
    from repro.experiments.config import StreamExperimentConfig
    from repro.fleet.spec import FleetConfig

    hints = typing.get_type_hints(StreamExperimentConfig, localns={"FleetConfig": FleetConfig})
    kinds = {
        int: "an integer",
        float: "a number",
        str: "a string",
        bool: "a boolean",
        Tuple[int, ...]: ["an integer"],
        FleetConfig: "an object",
    }
    shape: Dict[str, Any] = {}
    for config_field in fields(StreamExperimentConfig):
        hint = hints[config_field.name]
        args = typing.get_args(hint)
        optional = type(None) in args
        kind = kinds[args[0] if optional else hint]
        shape[config_field.name + "?"] = (kind, None) if optional else kind
    return shape


def checked_config(data: Any, where: str) -> StreamExperimentConfig:
    """:func:`config_from_dict` for outside bytes: an unknown field, a
    value of the wrong JSON kind, or a value the config (or its fleet
    spec) rejects raises one :class:`ValueError` naming ``where``."""
    shape = _config_shape()
    check_json(data, shape, where)
    unknown = sorted(set(data) - {key.rstrip("?") for key in shape})
    if unknown:
        raise ValueError(f"{where} has unknown fields {', '.join(map(repr, unknown))}")
    try:
        return config_from_dict(data)
    except (KeyError, TypeError, ValueError) as error:
        detail = f"{type(error).__name__}: {error}"
        raise ValueError(f"{where} is not a valid config ({detail})") from None


def check_generator_state(state: Any, where: str) -> None:
    """Raise :class:`ValueError` naming ``where`` unless ``state`` is a
    PCG64 bit-generator state (what every generator here saves)."""
    try:
        np.random.PCG64(0).state = state
    except (KeyError, TypeError, ValueError) as error:
        detail = f"{type(error).__name__}: {error}"
        raise ValueError(f"{where} is not a PCG64 state ({detail})") from None


#: The JSON shape of a Session checkpoint's ``meta`` (:meth:`Session.state_dict`).
_SESSION_META = {
    "config": "an object",
    "policy": "a string",
    "eval_points": "an integer",
    "label_fraction": "a number",
    "lazy_interval": ("an integer", None),
    "score_momentum": "a number",
    "checkpoint_every?": ("an integer", None),
    "injected_components?": "a boolean",
    "rng": "an object",
    "stream": "an object",
    "lazy": (
        {
            "interval": ("an integer", None),
            "rescored_total": "an integer",
            "candidates_total": "an integer",
            "steps": "an integer",
        },
        None,
    ),
    "curve": {"seen_inputs": ["an integer"], "accuracies": ["a number"]},
    "diversity": ["a number"],
    "final_loss": "a number",
    "wall_accum?": "a number",
}


def check_session_meta(meta: Dict[str, Any], where: str = "meta") -> None:
    """Raise :class:`ValueError` naming the first value of a Session
    checkpoint's ``meta`` that a resumed run cannot use: a missing
    entry, a value of the wrong JSON kind, another version, a config
    :func:`checked_config` rejects, an unknown policy, a count below 1,
    a curve whose two lists differ in length, or a generator state
    numpy rejects.  The stream state's entries are the scenario's own:
    :func:`check_session_state` loads them into a scratch stream."""
    check_json(meta, _SESSION_META, where)
    try:
        check_version(meta, CHECKPOINT_VERSION, "Session checkpoint")
    except ValueError as error:
        raise ValueError(f"{where}: {error}") from None
    try:
        POLICIES.get(meta["policy"])
    except ValueError as error:
        raise ValueError(f"{where}['policy']: {error}") from None
    checked_config(meta["config"], f"{where}['config']")
    for name in ("eval_points", "lazy_interval", "checkpoint_every"):
        value = meta.get(name)
        if value is not None and value < 1:
            raise ValueError(f"{where}[{name!r}] must be >= 1, got {value}")
    curve = meta["curve"]
    if len(curve["seen_inputs"]) != len(curve["accuracies"]):
        raise ValueError(
            f"{where}['curve'] has {len(curve['seen_inputs'])} seen_inputs "
            f"but {len(curve['accuracies'])} accuracies"
        )
    for name, state in meta["rng"].items():
        check_generator_state(state, f"{where}['rng'][{name!r}]")


#: Learner-state keys whose shapes the config fixes: the model slice and
#: the optimizer moments.  The buffer and the history vary in length.
_SHAPED_STATE = MODEL_PREFIXES + ("optimizer/",)


def check_session_state(meta: Dict[str, Any], where: str = "meta") -> Optional[Layout]:
    """Check a Session checkpoint's stream state against the run its
    ``meta`` (already passed by :func:`check_session_meta`) builds, and
    return the layout its learner arrays must have.

    ``meta['stream']`` must load into a scratch stream of the config's
    scenario, or :class:`ValueError` names ``where``.  The layout holds
    the keys of a freshly built learner (unprefixed), with its shapes
    for the model slice and the optimizer moments
    (:func:`repro.nn.serialization.check_arrays` compares them).  A
    session on injected components returns None: it is checked when
    :meth:`Session.run` loads it into the components
    :meth:`Session.with_components` passed.
    """
    if meta.get("injected_components"):
        return None
    config = config_from_dict(meta["config"])
    try:
        _, fresh, stream = _build_run(
            config,
            build_components(config),
            meta["policy"],
            meta["lazy_interval"],
            meta["score_momentum"],
        )
    except (KeyError, TypeError, ValueError) as error:
        detail = f"{type(error).__name__}: {error}"
        raise ValueError(f"{where}['config'] does not build a run ({detail})") from None
    try:
        stream.load_state_dict(meta["stream"])
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as error:
        detail = f"{type(error).__name__}: {error}"
        raise ValueError(
            f"{where}['stream'] is not the state of a {config.scenario!r} stream ({detail})"
        ) from None
    return {
        key: np.shape(value) if key.startswith(_SHAPED_STATE) else None
        for key, value in fresh.state_dict().items()
    }


def _check_session_checkpoint(meta: Dict[str, Any], arrays: Dict[str, np.ndarray]) -> None:
    """:meth:`Session.resume`'s check: the ``meta`` values, the stream
    state, and the ``learner/*`` arrays."""
    check_session_meta(meta)
    layout = check_session_state(meta)
    if layout is not None:
        check_arrays(arrays, {f"learner/{key}": shape for key, shape in layout.items()})


def _none_if_nan(value: float) -> Optional[float]:
    """NaN -> None so the dict is strict-JSON (JSON has no NaN literal)."""
    return None if isinstance(value, float) and np.isnan(value) else value


def _nan_if_none(value: Optional[float]) -> float:
    return float("nan") if value is None else value


@dataclass
class StreamRunResult:
    """Outcome of one stage-1 run plus its probe evaluations."""

    policy: str
    config: StreamExperimentConfig
    curve: LearningCurve
    final_accuracy: float
    final_loss: float
    mean_select_seconds: float
    mean_train_seconds: float
    rescoring_fraction: Optional[float]
    buffer_class_diversity: float
    wall_seconds: float
    info: Dict[str, float] = field(default_factory=dict)

    @property
    def relative_batch_time(self) -> float:
        """Per-iteration time relative to training alone (Table I metric)."""
        if self.mean_train_seconds <= 0:
            return float("nan")
        return (
            self.mean_select_seconds + self.mean_train_seconds
        ) / self.mean_train_seconds

    # -- serialization --------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable representation (for logging / archiving)."""
        return {
            "policy": self.policy,
            "config": config_to_dict(self.config),
            "curve": {
                "method": self.curve.method,
                "seen_inputs": list(self.curve.seen_inputs),
                "accuracies": list(self.curve.accuracies),
            },
            "final_accuracy": _none_if_nan(self.final_accuracy),
            "final_loss": _none_if_nan(self.final_loss),
            "mean_select_seconds": self.mean_select_seconds,
            "mean_train_seconds": self.mean_train_seconds,
            "rescoring_fraction": self.rescoring_fraction,
            "buffer_class_diversity": self.buffer_class_diversity,
            "wall_seconds": self.wall_seconds,
            "info": dict(self.info),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "StreamRunResult":
        """Inverse of :meth:`to_dict`."""
        curve = LearningCurve(method=data["curve"]["method"])
        for seen, acc in zip(
            data["curve"]["seen_inputs"], data["curve"]["accuracies"]
        ):
            curve.add(seen, acc)
        return cls(
            policy=data["policy"],
            config=config_from_dict(data["config"]),
            curve=curve,
            final_accuracy=_nan_if_none(data["final_accuracy"]),
            final_loss=_nan_if_none(data["final_loss"]),
            mean_select_seconds=data["mean_select_seconds"],
            mean_train_seconds=data["mean_train_seconds"],
            rescoring_fraction=data["rescoring_fraction"],
            buffer_class_diversity=data["buffer_class_diversity"],
            wall_seconds=data["wall_seconds"],
            info=dict(data.get("info", {})),
        )


# ----------------------------------------------------------------------
# The Session facade
# ----------------------------------------------------------------------
class Session:
    """Fluent builder and executor for one stream-learning experiment.

    Construction is cheap; all heavy lifting happens in :meth:`run`.
    Builder methods return ``self`` so calls chain::

        result = (
            Session.from_config(cfg)
            .with_policy("k-center")
            .with_label_fraction(0.1)
            .on_step(lambda learner, stats: print(stats.loss))
            .run()
        )
    """

    def __init__(
        self, config: StreamExperimentConfig, policy: str = "contrast-scoring"
    ) -> None:
        self.config = config
        self._policy_name = policy
        self._eval_points = 6
        self._label_fraction = 1.0
        self._lazy_interval: Optional[int] = None
        self._score_momentum = 0.0
        self._injected_components: Optional[ExperimentComponents] = None
        self._on_step: List[Callable[[OnDeviceContrastiveLearner, StepStats], None]] = []
        self._on_probe: List[Callable[[OnDeviceContrastiveLearner, int, float], None]] = []
        self._on_finish: List[Callable[[StreamRunResult], None]] = []
        self._checkpoint_path: Optional[str] = None
        self._checkpoint_every: Optional[int] = None
        self._resume_state: Optional[Dict[str, Any]] = None
        self._initial_learner: Optional[Dict[str, np.ndarray]] = None
        # live run state (populated by run(); kept for introspection and
        # post-run checkpointing)
        self._components: Optional[ExperimentComponents] = None
        self._learner: Optional[OnDeviceContrastiveLearner] = None
        self._policy: Optional[ReplacementPolicy] = None
        self._stream: Optional[StreamSource] = None
        self._curve: Optional[LearningCurve] = None
        self._diversity: List[float] = []
        self._final_loss = float("nan")
        self._wall_accum = 0.0  # wall seconds from earlier (checkpointed) runs
        self._run_started: Optional[float] = None

    # -- construction ---------------------------------------------------
    @classmethod
    def from_config(
        cls,
        config: Optional[StreamExperimentConfig] = None,
        policy: str = "contrast-scoring",
        **overrides: Any,
    ) -> "Session":
        """Build a session from a config (default config when None).

        Extra keyword arguments are applied as config field overrides,
        e.g. ``Session.from_config(seed=3, dataset="svhn")``.
        """
        from repro.experiments.config import default_config

        config = default_config() if config is None else config
        if overrides:
            config = config.with_(**overrides)
        return cls(config, policy)

    # -- fluent builders ------------------------------------------------
    def with_policy(self, name: str) -> "Session":
        """Select the replacement policy by registered name."""
        self._policy_name = name
        return self

    def with_eval_points(self, eval_points: int) -> "Session":
        """Number of probe checkpoints along the stream (>= 1)."""
        if eval_points < 1:
            raise ValueError(f"eval_points must be >= 1, got {eval_points}")
        self._eval_points = eval_points
        return self

    def with_label_fraction(self, fraction: float) -> "Session":
        """Stage-2 label budget for every probe."""
        self._label_fraction = fraction
        return self

    def with_lazy_interval(self, interval: Optional[int]) -> "Session":
        """Lazy-scoring interval T (contrast-scoring only)."""
        self._lazy_interval = interval
        return self

    def with_score_momentum(self, momentum: float) -> "Session":
        """EMA smoothing of scores (contrast-scoring only)."""
        self._score_momentum = momentum
        return self

    def with_backend(self, name: Optional[str]) -> "Session":
        """Execute the run on a registered array backend.

        Sugar for ``config.with_(backend=name)`` — the selection lives
        on the config so it serializes into checkpoints and sweep
        payloads.  ``None`` inherits the process default.
        """
        self.config = self.config.with_(backend=name)
        return self

    def with_metrics(self, enabled: Optional[bool] = True) -> "Session":
        """Gate hot-path metrics recording (:mod:`repro.obs`) for this run.

        Sugar for ``config.with_(obs=enabled)`` — the flag lives on the
        config so it serializes into checkpoints and crosses the wire
        to sweep/fleet workers, exactly like the backend selection.
        ``None`` defers to the process default (``REPRO_METRICS`` env or
        the CLI ``--metrics`` flag).  Telemetry never alters results:
        runs are bitwise-identical with it on or off.
        """
        self.config = self.config.with_(obs=enabled)
        return self

    def with_scenario(self, name: str) -> "Session":
        """Stream the run through a registered scenario.

        Sugar for ``config.with_(scenario=name)`` — like the backend,
        the selection rides the config so it serializes into
        checkpoints and sweep worker payloads.  Any registered
        :mod:`repro.data.scenarios` name or alias is accepted.
        """
        self.config = self.config.with_(scenario=name)
        return self

    def with_components(self, components: ExperimentComponents) -> "Session":
        """Run on pre-built components instead of building from config."""
        self._injected_components = components
        return self

    def with_initial_learner(self, arrays: Dict[str, np.ndarray]) -> "Session":
        """Start the next fresh :meth:`run` from these learner arrays.

        Once the run has built its components, learner, stream and
        probe pools, the given entries replace those of the new
        learner's :meth:`~repro.core.framework.OnDeviceContrastiveLearner.state_dict`
        (copied in; unknown keys raise :class:`KeyError`, wrong shapes
        :class:`ValueError`).  Everything else — optimizer moments,
        buffer, counters, every RNG — starts fresh.  A fleet device
        sampled for the first time adopts the global model this way.
        Cannot be combined with a pending resume (:meth:`from_state_dict`,
        :meth:`resume`).
        """
        self._initial_learner = dict(arrays)
        return self

    def with_checkpointing(
        self, path: str, every: Optional[int] = None
    ) -> "Session":
        """Write checkpoints to ``path``: every ``every`` iterations when
        set, and always on :meth:`save_checkpoint` calls."""
        if every is not None and every < 1:
            raise ValueError(f"checkpoint interval must be >= 1, got {every}")
        self._checkpoint_path = path
        self._checkpoint_every = every
        return self

    # -- lifecycle callbacks --------------------------------------------
    def on_step(
        self, fn: Callable[[OnDeviceContrastiveLearner, StepStats], None]
    ) -> "Session":
        """Register ``fn(learner, stats)`` to run after every iteration."""
        self._on_step.append(fn)
        return self

    def on_probe(
        self, fn: Callable[[OnDeviceContrastiveLearner, int, float], None]
    ) -> "Session":
        """Register ``fn(learner, seen_inputs, accuracy)`` after each probe."""
        self._on_probe.append(fn)
        return self

    def on_finish(self, fn: Callable[[StreamRunResult], None]) -> "Session":
        """Register ``fn(result)`` to run when :meth:`run` completes."""
        self._on_finish.append(fn)
        return self

    # -- introspection --------------------------------------------------
    @property
    def components(self) -> Optional[ExperimentComponents]:
        """Components of the current/last run (None before :meth:`run`)."""
        return self._components

    @property
    def learner(self) -> Optional[OnDeviceContrastiveLearner]:
        """Learner of the current/last run (None before :meth:`run`)."""
        return self._learner

    @property
    def policy(self) -> Optional[ReplacementPolicy]:
        """Policy instance of the current/last run."""
        return self._policy

    # -- execution ------------------------------------------------------
    def run(self, stop_after: Optional[int] = None) -> StreamRunResult:
        """Execute the stream experiment (or its remainder, on resume).

        Parameters
        ----------
        stop_after:
            Stop after this many iterations *of this call* (used with
            checkpointing to split a run; None = run to completion).
            Checked before anything is built, so a rejected value
            keeps a pending resume.

        Every call builds fresh components: unless a resume is pending
        (:meth:`resume`, :meth:`from_state_dict`), a second call on
        the same session starts the run over from step 0.  To continue
        a stopped run, resume from its state:
        ``Session.from_state_dict(session.state_dict()).run()``.

        The fresh-run path performs exactly the same sequence of RNG
        draws and model updates as the legacy
        ``run_stream_experiment``, so results are bit-identical.

        The whole run executes on ``config.backend`` when set (any
        registered :mod:`repro.nn.backend` name; ``None`` inherits the
        process default), and streams through ``config.scenario`` (any
        registered :mod:`repro.data.scenarios` name; default
        ``temporal``).  Both selections ride the config, so they also
        cross the wire to parallel-sweep workers and survive in
        checkpoints.
        """
        if stop_after is not None and stop_after < 0:
            raise ValueError(f"stop_after must be >= 0, got {stop_after}")
        with use_backend(self.config.backend), use_metrics(self.config.obs):
            return self._run(stop_after)

    def _run(self, stop_after: Optional[int]) -> StreamRunResult:
        # Canonicalize up front so result.policy, curve.method, and the
        # checkpoint all carry the canonical names even when aliases
        # ("cs", "cyclic", ...) were selected.
        self._policy_name = POLICIES.get(self._policy_name).name
        self.config = self.config.with_(
            scenario=canonical_scenario(self.config.scenario)
        )
        config = self.config
        if self._initial_learner is not None and self._resume_state is not None:
            raise ValueError(
                "with_initial_learner() starts a fresh run; it cannot be "
                "combined with a pending resume state"
            )
        if (
            self._resume_state is not None
            and self._resume_state["meta"].get("injected_components")
            and self._injected_components is None
        ):
            # Injected components can't be rebuilt from config alone;
            # resuming with config-built ones would silently diverge.
            raise RuntimeError(
                "this checkpoint was written from a session running on "
                "injected components (with_components); rebuild them and "
                "pass them via with_components() before run()"
            )
        comp = (
            self._injected_components
            if self._injected_components is not None
            else build_components(config)
        )
        self._components = comp
        rngs = comp.rngs
        policy, learner, stream = _build_run(
            config, comp, self._policy_name, self._lazy_interval, self._score_momentum
        )
        self._policy = policy
        self._learner = learner
        self._stream = stream

        # Fixed evaluation pools shared across checkpoints (and across
        # policy runs with the same seed, since the registry keys are
        # stable).
        probe_train_x, probe_train_y = comp.dataset.make_split(
            config.probe_train_per_class, rngs.get("probe-train-pool")
        )
        probe_test_x, probe_test_y = comp.dataset.make_split(
            config.probe_test_per_class, rngs.get("probe-test-pool")
        )

        def probe() -> float:
            result = evaluate_encoder(
                comp.encoder,
                probe_train_x,
                probe_train_y,
                probe_test_x,
                probe_test_y,
                comp.dataset.num_classes,
                rngs.get("probe"),
                label_fraction=self._label_fraction,
                lr=config.probe_lr,
                epochs=config.probe_epochs,
            )
            return result.accuracy

        total_iters = config.iterations
        eval_every = max(1, total_iters // self._eval_points)
        curve = LearningCurve(method=self._policy_name)
        self._curve = curve
        self._diversity = []
        self._final_loss = float("nan")
        self._wall_accum = 0.0  # fresh run; a resume below restores it

        if self._resume_state is not None:
            self._apply_resume_state(learner, stream, policy, curve, rngs)
        elif self._initial_learner is not None:
            learner.load_state_dict({**learner.state_dict(), **self._initial_learner})
            self._initial_learner = None

        # Hot-path instrumentation (repro.obs): resolve every instrument
        # once, outside the loop, so the per-step cost when enabled is a
        # few attribute ops — and a single bool check when disabled.
        # Recording is observation only (no RNG draws, no reordering),
        # so enabling it is bitwise-invisible to the run's results.
        step_counter = select_hist = train_hist = probe_hist = diversity_gauge = None
        if metrics_enabled():
            registry = metrics()
            labels = {"policy": self._policy_name}
            step_counter = registry.counter("session.steps", **labels)
            select_hist = registry.histogram("session.select_seconds", **labels)
            train_hist = registry.histogram("session.train_seconds", **labels)
            probe_hist = registry.histogram("session.probe_seconds", **labels)
            diversity_gauge = registry.gauge("session.buffer_diversity", **labels)

        start = time.perf_counter()
        self._run_started = start
        steps_this_call = 0
        remaining = config.total_samples - learner.seen_inputs
        segments = (
            stream.segments(config.buffer_size, remaining)
            if remaining > 0 and stop_after != 0
            else ()
        )
        for segment in segments:
            set_clock(step=learner.iteration + 1)
            with trace_span("session.step"):
                stats = learner.process_segment(segment)
            self._final_loss = stats.loss
            self._diversity.append(
                float(
                    (learner.buffer_class_histogram(comp.dataset.num_classes) > 0).sum()
                )
            )
            if step_counter is not None:
                step_counter.inc()
                select_hist.observe(stats.select_seconds)
                train_hist.observe(stats.train_seconds)
                diversity_gauge.set(self._diversity[-1])
            for fn in self._on_step:
                fn(learner, stats)
            is_last = learner.seen_inputs >= config.total_samples
            if learner.iteration % eval_every == 0 or is_last:
                probe_start = time.perf_counter()
                with trace_span("session.probe"):
                    accuracy = probe()
                if probe_hist is not None:
                    probe_hist.observe(time.perf_counter() - probe_start)
                curve.add(learner.seen_inputs, accuracy)
                for fn in self._on_probe:
                    fn(learner, learner.seen_inputs, accuracy)
            steps_this_call += 1
            if (
                self._checkpoint_every is not None
                and learner.iteration % self._checkpoint_every == 0
            ):
                self.save_checkpoint()
            if stop_after is not None and steps_this_call >= stop_after:
                break
        # Accumulate across resumes so wall_seconds spans the whole run,
        # matching the other aggregates (curve, mean timings, diversity).
        wall = self._wall_accum + (time.perf_counter() - start)
        self._wall_accum = wall
        self._run_started = None

        rescoring = None
        if isinstance(policy, ContrastScoringPolicy):
            rescoring = policy.lazy.rescoring_fraction

        # Training-free kNN readout of the final encoder on the fixed
        # probe pools — the accuracy cell of the scenario-sweep
        # robustness table.  knn_predict draws no RNG, so this never
        # perturbs checkpoint/resume bitwiseness.
        knn_accuracy = KnnProbe(comp.encoder).score(
            probe_train_x,
            probe_train_y,
            probe_test_x,
            probe_test_y,
            num_classes=comp.dataset.num_classes,
        )

        result = StreamRunResult(
            policy=self._policy_name,
            config=config,
            curve=curve,
            final_accuracy=curve.final_accuracy if len(curve) else float("nan"),
            final_loss=self._final_loss,
            mean_select_seconds=learner.mean_select_seconds(),
            mean_train_seconds=learner.mean_train_seconds(),
            rescoring_fraction=rescoring,
            buffer_class_diversity=(
                float(np.mean(self._diversity)) if self._diversity else 0.0
            ),
            wall_seconds=wall,
            info={"final_knn_accuracy": float(knn_accuracy)},
        )
        for fn in self._on_finish:
            fn(result)
        return result

    # -- checkpoint / resume --------------------------------------------
    def state_dict(self) -> Dict[str, Any]:
        """The live run state as an in-memory checkpoint.

        Returns ``{"meta": <JSON-serializable dict>, "learner":
        {name: ndarray}}`` — exactly the content
        :meth:`save_checkpoint` persists, without touching disk.  A
        session rebuilt from it (:meth:`from_state_dict` /
        :meth:`load_state_dict`) continues the run with
        bitwise-identical step statistics; the fleet coordinator uses
        this to carry per-device state across rounds and process
        boundaries.  Only meaningful during or after :meth:`run` (the
        learner must exist).

        Transport invariant: the ``"learner"`` arrays are the live
        parameter buffers, **not copies** — wire formats
        (:mod:`repro.experiments.wire`) encode them zero-copy through a
        ``memoryview`` over each contiguous array.  Callers that ship
        the dict across a process boundary must not mutate the session
        until the encode completes; codecs must never hold views past
        their encode call.
        """
        if self._learner is None or self._components is None or self._stream is None:
            raise RuntimeError("nothing to checkpoint: run() has not started")

        lazy_state = None
        if isinstance(self._policy, ContrastScoringPolicy):
            lazy_state = self._policy.lazy.state_dict()
        curve = self._curve if self._curve is not None else LearningCurve(self._policy_name)
        meta = {
            "version": CHECKPOINT_VERSION,
            "config": config_to_dict(self.config),
            "policy": self._policy_name,
            "eval_points": self._eval_points,
            "label_fraction": self._label_fraction,
            "lazy_interval": self._lazy_interval,
            "score_momentum": self._score_momentum,
            "checkpoint_every": self._checkpoint_every,
            "injected_components": self._injected_components is not None,
            "rng": self._components.rngs.state(),
            "stream": self._stream.state_dict(),
            "lazy": lazy_state,
            "curve": {
                "seen_inputs": list(curve.seen_inputs),
                "accuracies": list(curve.accuracies),
            },
            "diversity": list(self._diversity),
            "final_loss": self._final_loss,
            "wall_accum": self._wall_accum
            + (
                time.perf_counter() - self._run_started
                if self._run_started is not None
                else 0.0
            ),
        }
        return {"meta": meta, "learner": self._learner.state_dict()}

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        """Point this session at a state written by :meth:`state_dict`.

        Replaces the config, policy selection, and run options with the
        checkpointed ones; the next :meth:`run` call continues the
        original run bitwise-identically.
        """
        meta = state["meta"]
        check_version(meta, CHECKPOINT_VERSION, "Session checkpoint")
        self.config = config_from_dict(meta["config"])
        self._policy_name = meta["policy"]
        self._eval_points = int(meta["eval_points"])
        self._label_fraction = float(meta["label_fraction"])
        self._lazy_interval = meta["lazy_interval"]
        self._score_momentum = float(meta["score_momentum"])
        self._checkpoint_every = meta.get("checkpoint_every")
        self._resume_state = {
            "meta": meta,
            "learner": {
                key: np.asarray(value).copy()
                for key, value in state["learner"].items()
            },
        }

    @classmethod
    def from_state_dict(cls, state: Dict[str, Any]) -> "Session":
        """A fresh session continuing the run captured by
        :meth:`state_dict` (the in-memory analogue of :meth:`resume`)."""
        meta = state["meta"]
        # Checked before the config parse: an incompatible layout must
        # fail with the version message, not a config error.
        check_version(meta, CHECKPOINT_VERSION, "Session checkpoint")
        session = cls(config_from_dict(meta["config"]), policy=meta["policy"])
        session.load_state_dict(state)
        return session

    def save_checkpoint(self, path: Optional[str] = None) -> str:
        """Write the live run state to ``path`` (a single ``.npz``; the
        suffix is appended when missing).

        Only meaningful during or after :meth:`run` (the learner must
        exist).  Returns the path written.
        """
        path = path if path is not None else self._checkpoint_path
        if path is None:
            raise ValueError("no checkpoint path: pass one or use with_checkpointing")
        state = self.state_dict()
        arrays = {f"learner/{key}": value for key, value in state["learner"].items()}
        return save_state(arrays, path, meta=state["meta"])

    @classmethod
    def resume(cls, path: str) -> "Session":
        """Rebuild a session from a checkpoint written by
        :meth:`save_checkpoint`; its :meth:`run` continues the original
        run and produces bitwise-identical step statistics.  A defective
        file raises one :class:`ValueError` naming ``path``
        (:func:`repro.nn.serialization.read_checkpoint`), and so does a
        ``meta`` value :func:`check_session_meta` rejects, or a stream
        state or set of arrays :func:`check_session_state` rejects."""
        meta, arrays = read_checkpoint(
            path,
            kind="Session checkpoint",
            version=CHECKPOINT_VERSION,
            fields=("policy",),
            check=_check_session_checkpoint,
        )
        session = cls.from_state_dict({"meta": meta, "learner": strip_prefix(arrays, "learner/")})
        session._checkpoint_path = path
        return session

    def _apply_resume_state(
        self,
        learner: OnDeviceContrastiveLearner,
        stream: StreamSource,
        policy: ReplacementPolicy,
        curve: LearningCurve,
        rngs: RngRegistry,
    ) -> None:
        """Fast-forward freshly built components to the checkpoint.

        Restore happens *after* construction and probe-pool creation:
        those consume RNG draws deterministically from the registry's
        initial states, so setting the saved generator states afterwards
        lands every generator exactly where the original run left it.
        """
        state = self._resume_state
        assert state is not None
        meta = state["meta"]
        learner.load_state_dict(state["learner"])
        rngs.set_state(meta["rng"])
        stream.load_state_dict(meta["stream"])
        if meta["lazy"] is not None and isinstance(policy, ContrastScoringPolicy):
            policy.lazy.load_state_dict(meta["lazy"])
        for seen, acc in zip(
            meta["curve"]["seen_inputs"], meta["curve"]["accuracies"]
        ):
            curve.add(seen, acc)
        self._diversity = [float(v) for v in meta["diversity"]]
        self._final_loss = float(meta["final_loss"])
        self._wall_accum = float(meta.get("wall_accum", 0.0))
        self._resume_state = None
