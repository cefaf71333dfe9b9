"""Registry-driven stream scenarios — the device-stream zoo and algebra.

The paper's argument lives or dies on *realistic device streams*:
temporally correlated, drifting, unlabeled input (§IV-A).  This module
makes the stream shape a first-class, pluggable component, exactly the
way policies and backends already are:

* :class:`StreamSource` — the protocol every stream implements
  (``next_segment`` / ``segments`` / ``position`` / ``state_dict`` /
  ``load_state_dict``).  :class:`~repro.data.stream.TemporalStream` and
  :class:`~repro.data.drift.DriftStream` satisfy it unchanged.
* :class:`StreamWrapper` — the base for *wrapper* scenarios that
  compose over any :class:`StreamSource`, including other wrappers.
* ``SCENARIOS`` registry (:mod:`repro.registry`) — scenarios register
  with ``@register_scenario`` (wrappers pass ``kind="wrapper"``) and
  are then accepted by name everywhere: ``config.scenario``,
  ``Session.with_scenario``, the CLI's ``--scenario`` flag, and the
  ``scenario-sweep`` experiment.
* Composition syntax — everywhere a scenario name is accepted, a
  *composition* is too: ``corrupted(bursty(imbalanced))`` stacks
  wrappers over a base, with per-node options
  (``corrupted(bursty,noise_std=0.4)``).  The grammar lives in
  :mod:`repro.data.composition`; :func:`canonical_scenario` validates
  and canonicalizes, :func:`create_scenario` builds.
* :func:`create_scenario` — the canonical constructor; the framework
  offers ``dataset, stc, rng, total_samples`` and the factory declares
  what it needs (same offer-vs-option rule as ``create_policy``).

Base scenarios (docs/SCENARIOS.md has the full guide):

==============  ======================================================
``temporal``    fixed STC runs — the paper's base process
``drift``       class-incremental phases (classes unlock over time)
``cyclic-drift``  disjoint environments that *recur*, testing
                whether a policy's buffer forgets a revisited world
``bursty``      variable run lengths: calm STC runs punctuated by
                long same-class bursts (run-length schedule)
``imbalanced``  long-tailed class frequencies (head classes dominate)
==============  ======================================================

Wrapper scenarios (compose over any base, or each other):

===============  =====================================================
``corrupted``    per-phase noise/blur input shift; labels pass
                 through bitwise
``label-shift``  per-phase class-frequency re-weighting (the favored
                 class group rotates over time — distinct from
                 ``imbalanced``'s static long tail)
``adversarial``  worst-case phase ordering: pulls a lookahead of
                 windows from the base and greedily schedules the
                 most-dissimilar environment next, maximizing
                 forgetting pressure
===============  =====================================================

``bursty`` is a *hybrid*: used as a leaf it is the base scenario above,
but given a wrapped scenario (``bursty(imbalanced)``) it becomes a
re-timing wrapper that stretches the base's same-class runs into
bursts — which is what makes the flagship composition
``corrupted(bursty(imbalanced))`` well-formed.

Wrapper determinism: each wrapper layer draws from its own generator
*derived* from the offered stream RNG (:func:`derive_wrapper_rng`)
without ever advancing it, so the base label process is bitwise
independent of which wrappers sit on top — the identity and
order-independence laws the property suite checks.  The derived
generator state rides the wrapper's ``state_dict``, keeping mid-stream
checkpoint/resume bitwise.
"""

from __future__ import annotations

import math
import numbers
import zlib
from typing import Any, Iterator, List, Optional, Protocol, Tuple, runtime_checkable

import numpy as np

from repro.data.composition import ScenarioExpr, format_scenario, parse_scenario
from repro.data.drift import DriftStream, growing_phases
from repro.data.stream import StreamSegment, TemporalStream, _segment_iterator
from repro.data.synthetic import SyntheticImageDataset
from repro.registry import SCENARIOS, register_scenario

__all__ = [
    "StreamSource",
    "StreamWrapper",
    "create_scenario",
    "canonical_scenario",
    "derive_wrapper_rng",
    "disjoint_phases",
    "CyclicDriftStream",
    "BurstyStream",
    "ImbalancedStream",
    "CorruptedStream",
    "LabelShiftStream",
    "AdversarialStream",
    "BurstyWrapper",
]


@runtime_checkable
class StreamSource(Protocol):
    """The contract every stream scenario implements.

    A stream source is a *stateful process*: each ``next_segment`` call
    advances it, ``position`` counts samples emitted so far, and the
    ``state_dict``/``load_state_dict`` pair checkpoints the process
    counters (the driving RNG is owned and checkpointed by the caller's
    :class:`~repro.utils.rng.RngRegistry`; wrapper layers checkpoint
    their own derived generators inside ``state_dict``).  Labels
    carried by the produced :class:`~repro.data.stream.StreamSegment`
    are for *evaluation only* — the framework never shows them to
    selection policies.
    """

    def next_segment(self, segment_size: int) -> StreamSegment: ...

    def segments(
        self, segment_size: int, total_samples: int
    ) -> Iterator[StreamSegment]: ...

    @property
    def position(self) -> int: ...

    def state_dict(self) -> dict: ...

    def load_state_dict(self, state: dict) -> None: ...


# ----------------------------------------------------------------------
# Wrapper RNG derivation.  Checkpointed lookahead arrays go through the
# shared array codec, repro.experiments.wire, imported inside the
# state_dict methods: the repro.experiments package imports this one.
# ----------------------------------------------------------------------
def derive_wrapper_rng(
    rng: np.random.Generator, layer: int, name: str
) -> np.random.Generator:
    """Derive a wrapper layer's private generator from the stream RNG.

    The offered generator is *probed*, never advanced: its state is
    cloned into a scratch generator whose single draw seeds a
    ``SeedSequence`` together with the layer index and the wrapper
    name.  Consequences, both load-bearing for the algebra laws:

    * the base label process is bitwise identical with or without any
      stack of wrappers on top (wrappers never consume base draws), and
    * two different wrappers — or the same wrapper at two depths — get
      decorrelated streams even though all derive from one seed.
    """
    scratch = np.random.Generator(type(rng.bit_generator)())
    scratch.bit_generator.state = rng.bit_generator.state
    probe = int(scratch.integers(0, 2**63))
    entropy = [probe, int(layer), zlib.crc32(name.encode("ascii"))]
    return np.random.default_rng(np.random.SeedSequence(entropy=entropy))


# ----------------------------------------------------------------------
# The wrapper base: compose over any StreamSource, including wrappers.
# ----------------------------------------------------------------------
class StreamWrapper:
    """Base class for scenarios that compose over another stream.

    A wrapper delegates the *process* (position, base checkpoint state,
    the driving ``rng``) to the wrapped source and transforms the
    segments flowing through.  Subclasses override
    :meth:`transform_segment` (per-segment rewrites) or
    :meth:`next_segment` itself (wrappers that re-time the base, like
    ``adversarial``).

    ``label_contract`` declares what the wrapper may do to labels, and
    the fuzzer enforces it on every composition:

    * ``"bitwise"`` — output labels equal base labels elementwise
      (``corrupted``: only images change);
    * ``"subset"`` — every emitted (image, label) pair is drawn intact
      from base output, so emitted labels form a multiset subset of the
      labels the base produced (``label-shift``, ``adversarial``).
    """

    #: "bitwise" or "subset"; see class docstring.
    label_contract = "bitwise"

    def __init__(
        self, base: StreamSource, rng: Optional[np.random.Generator] = None
    ) -> None:
        self.base = base
        self.wrapper_rng = rng

    @property
    def rng(self) -> np.random.Generator:
        """The *driving* generator: the innermost base's RNG.

        Callers that checkpoint "the stream rng" (RngRegistry, the
        resume tests) keep working unchanged on any composition depth;
        each wrapper's private derived generator travels inside
        :meth:`state_dict` instead.
        """
        return self.base.rng

    def transform_segment(self, segment: StreamSegment) -> StreamSegment:
        raise NotImplementedError

    def next_segment(self, segment_size: int) -> StreamSegment:
        return self.transform_segment(self.base.next_segment(segment_size))

    def segments(
        self, segment_size: int, total_samples: int
    ) -> Iterator[StreamSegment]:
        """Iterate transformed segments (arguments validated eagerly)."""
        return _segment_iterator(self, segment_size, total_samples)

    @property
    def position(self) -> int:
        return self.base.position

    def state_dict(self) -> dict:
        state = {"base": self.base.state_dict()}
        if self.wrapper_rng is not None:
            state["wrapper_rng"] = self.wrapper_rng.bit_generator.state
        return state

    def load_state_dict(self, state: dict) -> None:
        self.base.load_state_dict(state["base"])
        if self.wrapper_rng is not None:
            self.wrapper_rng.bit_generator.state = state["wrapper_rng"]


def create_scenario(
    name: str,
    *,
    dataset: SyntheticImageDataset,
    stc: int,
    rng: np.random.Generator,
    total_samples: int,
    **extra,
) -> StreamSource:
    """Construct a stream scenario by registered name or composition.

    ``name`` may be a plain registered name (``"bursty"``), a name with
    inline options (``"bursty(burst_prob=0.5)"``), or a wrapper
    composition (``"corrupted(bursty(imbalanced))"``).

    The standard keyword set (``dataset``, ``stc``, ``rng``,
    ``total_samples``) is *offered* to each registered factory, which
    receives only the keywords its signature declares.  Keys the caller
    adds via ``extra`` are explicit options applied to the outermost
    node: a factory that does not accept one raises ``TypeError``
    (mirroring :func:`repro.registry.create_policy`).

    Validation errors inside a composition are re-raised with the
    composition path down to the failing node, e.g.
    ``corrupted(bursty(...)): burst_prob must be in [0, 1], got 3``.
    """
    expr = parse_scenario(name)
    return _build_expr(
        expr,
        dataset=dataset,
        stc=stc,
        rng=rng,
        total_samples=total_samples,
        extra=extra,
    )


def canonical_scenario(name: str) -> str:
    """Resolve a scenario name or composition to its canonical form.

    Plain names collapse aliases exactly like ``SCENARIOS.get(...).name``
    did; compositions additionally canonicalize every node's name and
    re-render with the canonical grammar (no whitespace, stable option
    formatting), so the returned string round-trips bitwise through
    checkpoints and sweep wire payloads.  Structural errors (unknown
    node, base used as wrapper) are raised eagerly, naming the failing
    node's composition path.
    """
    expr = parse_scenario(name)
    if expr.child is None and not expr.options:
        # plain name: behave exactly like SCENARIOS.get (including the
        # UnknownComponentError type existing callers catch as KeyError)
        return SCENARIOS.get(expr.name).name
    nodes = list(expr.walk())
    canonical: List[str] = []
    for depth, node in enumerate(nodes):
        try:
            entry = SCENARIOS.get(node.name)
        except KeyError as error:
            raise _path_error(ValueError, expr, depth, str(error)) from error
        if node.child is not None and not _can_wrap(entry):
            raise _path_error(
                ValueError,
                expr,
                depth,
                f"{entry.name!r} is a base scenario, not a wrapper — it "
                f"cannot compose over {node.child.name!r}",
            )
        canonical.append(entry.name)
    rebuilt: Optional[ScenarioExpr] = None
    for node_name, node in zip(reversed(canonical), reversed(nodes)):
        rebuilt = ScenarioExpr(node_name, child=rebuilt, options=node.options)
    return format_scenario(rebuilt)


def _can_wrap(entry) -> bool:
    """Whether a registry entry may take a wrapped scenario in composition.

    True for dedicated wrappers (``kind="wrapper"`` metadata) and for
    hybrids like ``bursty`` that register ``composes=True``.
    """
    return entry.metadata.get("kind") == "wrapper" or bool(
        entry.metadata.get("composes")
    )


def _path_error(
    kind: type, expr: ScenarioExpr, depth: int, message: str
) -> Exception:
    """Build ``kind`` carrying ``message`` prefixed with the composition
    path down to the failing node (child shown, deeper layers elided).

    Failing at ``bursty`` inside ``corrupted(bursty(imbalanced))``
    yields the prefix ``corrupted(bursty(imbalanced(...)))`` — enough
    to locate the node without repeating every option.
    """
    names = [node.name for node in expr.walk()]
    shown = names[: depth + 2]
    elided = len(names) > len(shown)
    path = shown[-1] + ("(...)" if elided else "")
    for outer in reversed(shown[:-1]):
        path = f"{outer}({path})"
    return kind(f"{path}: {message}")


#: The keywords ``_build_expr`` passes every factory itself; a
#: composition option of the same name is rejected, not forwarded twice.
_RUN_KEYWORDS = frozenset(
    ("dataset", "stc", "rng", "total_samples", "base_source", "wrapper_layer")
)


def _build_expr(
    expr: ScenarioExpr,
    *,
    dataset: SyntheticImageDataset,
    stc: int,
    rng: np.random.Generator,
    total_samples: int,
    extra: dict,
) -> StreamSource:
    nodes = list(expr.walk())  # outermost first
    # plain-name calls keep their bare error messages (back-compat);
    # anything written in composition syntax gets the path prefix.
    composed = expr.child is not None or bool(expr.options)
    source: Optional[StreamSource] = None
    for depth in range(len(nodes) - 1, -1, -1):
        node = nodes[depth]
        options = node.option_dict
        run_set = sorted(set(options) & _RUN_KEYWORDS)
        if run_set:  # options make the expression a composition
            raise _path_error(
                ValueError,
                expr,
                depth,
                f"option(s) set by the run, not by the scenario: {', '.join(run_set)}",
            )
        if depth == 0:
            clash = sorted(set(options) & set(extra))
            if clash:
                message = (
                    "option(s) given both inline and as keyword arguments: "
                    f"{', '.join(clash)}"
                )
                if composed:
                    raise _path_error(TypeError, expr, depth, message)
                raise TypeError(f"scenario {node.name!r}: {message}")
            options.update(extra)
        try:
            entry = SCENARIOS.get(node.name)
            if node.child is not None and not _can_wrap(entry):
                raise ValueError(
                    f"{entry.name!r} is a base scenario, not a wrapper — it "
                    f"cannot compose over {node.child.name!r}"
                )
            if source is None and entry.metadata.get("kind") == "wrapper":
                # A wrapper named alone composes over the default base.
                source = create_scenario(
                    "temporal", dataset=dataset, stc=stc, rng=rng, total_samples=total_samples
                )
            source = SCENARIOS.create_with_required(
                node.name,
                tuple(options),
                dataset=dataset,
                stc=stc,
                rng=rng,
                total_samples=total_samples,
                base_source=source,
                wrapper_layer=depth,
                **options,
            )
        except (ValueError, TypeError) as error:
            if not composed:
                raise
            kind = ValueError if isinstance(error, KeyError) else type(error)
            raise _path_error(kind, expr, depth, str(error)) from error
        if not isinstance(source, StreamSource):
            raise TypeError(
                f"scenario {node.name!r} built a {type(source).__name__}, "
                "expected a StreamSource "
                "(next_segment/segments/position/state_dict)"
            )
    return source


def disjoint_phases(num_classes: int, num_phases: int) -> List[List[int]]:
    """Split the class population into ``num_phases`` disjoint slices.

    The complement of :func:`~repro.data.drift.growing_phases`: each
    phase is a *different world* with no class overlap — the shape that
    makes recurring environments (``cyclic-drift``) measure forgetting.
    """
    if num_phases < 1:
        raise ValueError(f"num_phases must be >= 1, got {num_phases}")
    if num_classes < num_phases:
        raise ValueError(
            f"need at least one class per phase: {num_classes} classes, "
            f"{num_phases} phases"
        )
    bounds = np.linspace(0, num_classes, num_phases + 1).astype(int)
    return [list(range(bounds[i], bounds[i + 1])) for i in range(num_phases)]


class CyclicDriftStream(DriftStream):
    """Drift whose phases *recur* instead of persisting.

    ``DriftStream`` clamps to the final phase forever; here the phase
    index cycles (``(position // phase_length) % num_phases``), so a
    previously seen environment returns and the run measures whether
    the buffer still serves it — the forgetting axis of the paper's
    "adapt to new environments" story.
    """

    def phase_index(self, position: Optional[int] = None) -> int:
        """Phase active at ``position``, cycling through all phases."""
        position = self._position if position is None else position
        return (position // self.phase_length) % len(self.phases)


class BurstyStream(TemporalStream):
    """Variable STC schedule: calm runs punctuated by long bursts.

    Each new run draws its length — ``burst_stc`` with probability
    ``burst_prob``, else the base ``stc`` — modelling a camera that
    mostly pans across subjects but occasionally fixates (a parked car,
    a sleeping animal).  The empirical STC therefore *varies over
    time*, which no fixed-``stc`` grid point of the paper's Table 2
    exercises.
    """

    def __init__(
        self,
        dataset: SyntheticImageDataset,
        stc: int,
        rng: np.random.Generator,
        burst_stc: Optional[int] = None,
        burst_prob: float = 0.25,
        forbid_repeat: bool = True,
    ) -> None:
        super().__init__(dataset, stc, rng, forbid_repeat=forbid_repeat)
        burst_stc = 4 * self.stc if burst_stc is None else int(burst_stc)
        if burst_stc < 1:
            raise ValueError(f"burst_stc must be >= 1, got {burst_stc}")
        if not 0.0 <= burst_prob <= 1.0:
            raise ValueError(f"burst_prob must be in [0, 1], got {burst_prob}")
        self.burst_stc = burst_stc
        self.burst_prob = float(burst_prob)

    def _next_run_length(self) -> int:
        if self.rng.random() < self.burst_prob:
            return self.burst_stc
        return self.stc


class ImbalancedStream(TemporalStream):
    """Long-tailed class frequencies over an otherwise-correlated stream.

    Class ``k`` is drawn with probability proportional to
    ``imbalance ** (k / (K - 1))`` — a geometric decay whose head/tail
    frequency ratio is exactly ``1 / imbalance``.  Selection policies
    that only chase high scores can starve the tail; the buffer
    diversity column of the robustness table shows it.
    """

    def __init__(
        self,
        dataset: SyntheticImageDataset,
        stc: int,
        rng: np.random.Generator,
        imbalance: float = 0.1,
        forbid_repeat: bool = True,
    ) -> None:
        super().__init__(dataset, stc, rng, forbid_repeat=forbid_repeat)
        if not 0.0 < imbalance <= 1.0:
            raise ValueError(f"imbalance must be in (0, 1], got {imbalance}")
        self.imbalance = float(imbalance)
        k = dataset.num_classes
        weights = np.power(imbalance, np.arange(k) / max(k - 1, 1))
        self.class_probs = weights / weights.sum()

    def _next_class(self) -> int:
        probs = self.class_probs
        if self.forbid_repeat and self._current_class is not None:
            probs = probs.copy()
            probs[self._current_class] = 0.0
            probs = probs / probs.sum()
        return int(self.rng.choice(self.dataset.num_classes, p=probs))


def _box_blur(images: np.ndarray) -> np.ndarray:
    """3×3 circular box blur over the spatial axes of an NCHW batch."""
    out = np.zeros(images.shape, dtype=np.float64)
    for dy in (-1, 0, 1):
        for dx in (-1, 0, 1):
            out += np.roll(np.roll(images, dy, axis=2), dx, axis=3)
    return out / 9.0


class CorruptedStream(StreamWrapper):
    """Per-phase corruption shift composed on top of any base scenario.

    Sample ``i`` passes through corruption level
    ``(i // phase_length) % levels``: level 0 is clean, higher levels
    add Gaussian pixel noise of linearly increasing strength, and the
    top level additionally box-blurs (when ``blur``).  The *input
    distribution* therefore shifts while the *label process* is
    whatever the wrapped base scenario produces — labels pass through
    untouched (``label_contract="bitwise"``), preserving the segment
    label-isolation contract at any nesting depth.
    """

    label_contract = "bitwise"

    def __init__(
        self,
        base: StreamSource,
        rng: np.random.Generator,
        phase_length: int,
        levels: int = 3,
        noise_std: float = 0.2,
        blur: bool = True,
    ) -> None:
        if phase_length < 1:
            raise ValueError(f"phase_length must be >= 1, got {phase_length}")
        if levels < 2:
            raise ValueError(f"need >= 2 corruption levels, got {levels}")
        if noise_std < 0:
            raise ValueError(f"noise_std must be non-negative, got {noise_std}")
        super().__init__(base, rng)
        self.phase_length = int(phase_length)
        self.levels = int(levels)
        self.noise_std = float(noise_std)
        self.blur = bool(blur)

    # ------------------------------------------------------------------
    def corruption_level(self, position: int) -> int:
        """Corruption level applied to the sample at ``position``."""
        return (position // self.phase_length) % self.levels

    def _corrupt(self, images: np.ndarray, start: int) -> np.ndarray:
        levels = self.corruption_level(start + np.arange(images.shape[0]))
        images = images.astype(np.float64, copy=True)
        # np.unique is sorted, so the per-level RNG draw order is fixed.
        for level in np.unique(levels):
            if level == 0:
                continue
            mask = levels == level
            chunk = images[mask]
            if self.blur and level == self.levels - 1:
                chunk = _box_blur(chunk)
            std = self.noise_std * (level / (self.levels - 1))
            if std > 0:
                chunk = chunk + self.wrapper_rng.normal(0.0, std, size=chunk.shape)
            images[mask] = chunk
        return np.clip(images, 0.0, 1.0).astype(np.float32)

    def transform_segment(self, segment: StreamSegment) -> StreamSegment:
        images = self._corrupt(segment.images, segment.start_index)
        return StreamSegment(images, segment.labels, segment.start_index)


class LabelShiftStream(StreamWrapper):
    """Per-phase class-frequency re-weighting over any base scenario.

    The class population is split into ``num_phases`` disjoint groups
    (:func:`disjoint_phases`); during phase ``p`` (cycling with
    ``phase_length``), samples whose label falls in group ``p`` keep
    weight 1 while every other sample is down-weighted to ``shift``.
    Each segment is rewritten by a weighted bootstrap resample of its
    own samples (indices sorted, so temporal order survives): the
    *frequency* of classes shifts per phase while every emitted pair is
    a genuine base sample (``label_contract="subset"``).

    Distinct from ``imbalanced``: that is a *static* long tail baked
    into the label process; this is a *rotating* re-weighting layered
    on any process — including ``imbalanced`` itself.
    """

    label_contract = "subset"

    def __init__(
        self,
        base: StreamSource,
        rng: np.random.Generator,
        num_classes: int,
        phase_length: int,
        num_phases: int = 2,
        shift: float = 0.1,
    ) -> None:
        if phase_length < 1:
            raise ValueError(f"phase_length must be >= 1, got {phase_length}")
        if not 0.0 < shift <= 1.0:
            raise ValueError(f"shift must be in (0, 1], got {shift}")
        groups = disjoint_phases(num_classes, num_phases)
        super().__init__(base, rng)
        self.num_classes = int(num_classes)
        self.phase_length = int(phase_length)
        self.num_phases = int(num_phases)
        self.shift = float(shift)
        self.class_group = np.empty(num_classes, dtype=np.int64)
        for group, classes in enumerate(groups):
            self.class_group[classes] = group

    def phase_index(self, position: int) -> int:
        """Favored class group at ``position``, cycling through groups."""
        return (position // self.phase_length) % self.num_phases

    def transform_segment(self, segment: StreamSegment) -> StreamSegment:
        n = segment.labels.shape[0]
        positions = segment.start_index + np.arange(n)
        phases = (positions // self.phase_length) % self.num_phases
        favored = self.class_group[segment.labels] == phases
        weights = np.where(favored, 1.0, self.shift)
        probs = weights / weights.sum()
        idx = np.sort(self.wrapper_rng.choice(n, size=n, replace=True, p=probs))
        return StreamSegment(
            segment.images[idx], segment.labels[idx], segment.start_index
        )


class AdversarialStream(StreamWrapper):
    """Worst-case phase ordering: schedule the most-dissimilar window next.

    Pulls ``lookahead`` windows of ``phase_length`` samples from the
    base per refill, then greedily reorders them to maximize the L1
    distance between consecutive windows' normalized class histograms
    (ties break to the earliest window) — the ordering that maximizes
    forgetting pressure on a replacement buffer.  Samples inside a
    window keep their base order, and every emitted pair is a genuine
    base sample (``label_contract="subset"``).

    The wrapper re-times the base (it reads ahead), so it keeps its own
    ``position`` counter and checkpoints the un-emitted lookahead
    buffers losslessly in ``state_dict`` — mid-stream resume stays
    bitwise even with windows in flight.
    """

    label_contract = "subset"

    def __init__(
        self,
        base: StreamSource,
        rng: np.random.Generator,
        num_classes: int,
        phase_length: int,
        lookahead: int = 4,
    ) -> None:
        if phase_length < 1:
            raise ValueError(f"phase_length must be >= 1, got {phase_length}")
        if lookahead < 2:
            raise ValueError(
                f"lookahead must be >= 2 to reorder anything, got {lookahead}"
            )
        super().__init__(base, rng)
        self.num_classes = int(num_classes)
        self.phase_length = int(phase_length)
        self.lookahead = int(lookahead)
        self._position = 0
        self._offset = 0  # consumed samples within the front pending window
        self._pending: List[Tuple[np.ndarray, np.ndarray]] = []
        self._last_hist: Optional[np.ndarray] = None

    def _histogram(self, labels: np.ndarray) -> np.ndarray:
        counts = np.bincount(labels, minlength=self.num_classes).astype(np.float64)
        total = counts.sum()
        return counts / total if total else counts

    def _refill(self) -> None:
        windows = [
            self.base.next_segment(self.phase_length)
            for _ in range(self.lookahead)
        ]
        hists = [self._histogram(w.labels) for w in windows]
        remaining = list(range(len(windows)))
        last = self._last_hist
        order: List[int] = []
        while remaining:
            if last is None:
                pick = remaining[0]
            else:
                # max histogram distance; ties break to the earliest window
                pick = max(
                    remaining,
                    key=lambda i: (float(np.abs(hists[i] - last).sum()), -i),
                )
            order.append(pick)
            remaining.remove(pick)
            last = hists[pick]
        self._last_hist = last
        self._pending.extend(
            (windows[i].images, windows[i].labels) for i in order
        )

    def next_segment(self, segment_size: int) -> StreamSegment:
        if segment_size < 1:
            raise ValueError(f"segment_size must be >= 1, got {segment_size}")
        images_parts: List[np.ndarray] = []
        labels_parts: List[np.ndarray] = []
        need = segment_size
        while need > 0:
            if not self._pending:
                self._refill()
            images, labels = self._pending[0]
            take = min(need, labels.shape[0] - self._offset)
            images_parts.append(images[self._offset : self._offset + take])
            labels_parts.append(labels[self._offset : self._offset + take])
            self._offset += take
            need -= take
            if self._offset >= labels.shape[0]:
                self._pending.pop(0)
                self._offset = 0
        start = self._position
        self._position += segment_size
        return StreamSegment(
            np.concatenate(images_parts), np.concatenate(labels_parts), start
        )

    @property
    def position(self) -> int:
        return self._position

    def state_dict(self) -> dict:
        from repro.experiments.wire import encode_array

        state = super().state_dict()
        state.update(
            position=self._position,
            offset=self._offset,
            pending=[
                {"images": encode_array(i), "labels": encode_array(l)}
                for i, l in self._pending
            ],
            last_hist=(
                None
                if self._last_hist is None
                else [float(x) for x in self._last_hist]
            ),
        )
        return state

    def load_state_dict(self, state: dict) -> None:
        from repro.experiments.wire import decode_array

        super().load_state_dict(state)
        self._position = int(state["position"])
        self._offset = int(state["offset"])
        self._pending = [
            (decode_array(p["images"]), decode_array(p["labels"]))
            for p in state["pending"]
        ]
        self._last_hist = (
            None
            if state["last_hist"] is None
            else np.asarray(state["last_hist"], dtype=np.float64)
        )


class BurstyWrapper(StreamWrapper):
    """Re-timing wrapper: stretch the base's same-class runs into bursts.

    The wrapper pulls the base stream run by run (a *run* is a maximal
    stretch of consecutive same-class samples, probed up to
    ``burst_stc``).  With probability ``burst_prob`` a run is extended
    to ``burst_stc`` samples by resampling frames from within the run —
    a camera fixating on the same subject — otherwise it passes through
    untouched.  The base's *class sequence* is preserved exactly; only
    durations change, so ``bursty(imbalanced)`` is a long-tailed class
    process with a bursty run-length schedule.  Every emitted pair is a
    genuine base sample (``label_contract="subset"``).

    Used when the ``bursty`` scenario is given a wrapped scenario; as a
    leaf, ``bursty`` stays the :class:`BurstyStream` base process.
    """

    label_contract = "subset"

    def __init__(
        self,
        base: StreamSource,
        rng: np.random.Generator,
        stc: int,
        burst_stc: Optional[int] = None,
        burst_prob: float = 0.25,
    ) -> None:
        if stc < 1:
            raise ValueError(f"stc must be >= 1, got {stc}")
        burst_stc = 4 * stc if burst_stc is None else int(burst_stc)
        if burst_stc < 1:
            raise ValueError(f"burst_stc must be >= 1, got {burst_stc}")
        if not 0.0 <= burst_prob <= 1.0:
            raise ValueError(f"burst_prob must be in [0, 1], got {burst_prob}")
        super().__init__(base, rng)
        self.stc = int(stc)
        self.burst_stc = burst_stc
        self.burst_prob = float(burst_prob)
        self._position = 0
        # un-consumed base samples (pulled while probing run boundaries)
        self._buf_images: Optional[np.ndarray] = None
        self._buf_labels: Optional[np.ndarray] = None
        # current (possibly stretched) output run and the emit cursor
        self._run_images: Optional[np.ndarray] = None
        self._run_labels: Optional[np.ndarray] = None
        self._run_pos = 0

    def _pull(self) -> None:
        segment = self.base.next_segment(self.stc)
        if self._buf_labels is None:
            self._buf_images = segment.images
            self._buf_labels = segment.labels
        else:
            self._buf_images = np.concatenate([self._buf_images, segment.images])
            self._buf_labels = np.concatenate([self._buf_labels, segment.labels])

    def _extract_run(self) -> Tuple[np.ndarray, np.ndarray]:
        """Pop the base's leading same-class run (probe cap: burst_stc)."""
        if self._buf_labels is None or self._buf_labels.shape[0] == 0:
            self._pull()
        first = self._buf_labels[0]
        while (
            np.all(self._buf_labels == first)
            and self._buf_labels.shape[0] < self.burst_stc
        ):
            self._pull()
        breaks = np.nonzero(self._buf_labels != first)[0]
        end = int(breaks[0]) if breaks.size else self._buf_labels.shape[0]
        end = min(end, self.burst_stc)
        run = (self._buf_images[:end], self._buf_labels[:end])
        self._buf_images = self._buf_images[end:]
        self._buf_labels = self._buf_labels[end:]
        return run

    def _next_run(self) -> None:
        images, labels = self._extract_run()
        if self.wrapper_rng.random() < self.burst_prob:
            short = self.burst_stc - labels.shape[0]
            if short > 0:
                extra = self.wrapper_rng.integers(0, labels.shape[0], size=short)
                images = np.concatenate([images, images[extra]])
                labels = np.concatenate([labels, labels[extra]])
        self._run_images = images
        self._run_labels = labels
        self._run_pos = 0

    def next_segment(self, segment_size: int) -> StreamSegment:
        if segment_size < 1:
            raise ValueError(f"segment_size must be >= 1, got {segment_size}")
        images_parts: List[np.ndarray] = []
        labels_parts: List[np.ndarray] = []
        need = segment_size
        while need > 0:
            if (
                self._run_labels is None
                or self._run_pos >= self._run_labels.shape[0]
            ):
                self._next_run()
            take = min(need, self._run_labels.shape[0] - self._run_pos)
            images_parts.append(
                self._run_images[self._run_pos : self._run_pos + take]
            )
            labels_parts.append(
                self._run_labels[self._run_pos : self._run_pos + take]
            )
            self._run_pos += take
            need -= take
        start = self._position
        self._position += segment_size
        return StreamSegment(
            np.concatenate(images_parts), np.concatenate(labels_parts), start
        )

    @property
    def position(self) -> int:
        return self._position

    def state_dict(self) -> dict:
        from repro.experiments.wire import encode_array

        state = super().state_dict()
        state.update(
            position=self._position,
            run_pos=self._run_pos,
            buffer=(
                None
                if self._buf_labels is None
                else {
                    "images": encode_array(self._buf_images),
                    "labels": encode_array(self._buf_labels),
                }
            ),
            run=(
                None
                if self._run_labels is None
                else {
                    "images": encode_array(self._run_images),
                    "labels": encode_array(self._run_labels),
                }
            ),
        )
        return state

    def load_state_dict(self, state: dict) -> None:
        from repro.experiments.wire import decode_array

        super().load_state_dict(state)
        self._position = int(state["position"])
        self._run_pos = int(state["run_pos"])
        buffer = state["buffer"]
        if buffer is None:
            self._buf_images = self._buf_labels = None
        else:
            self._buf_images = decode_array(buffer["images"])
            self._buf_labels = decode_array(buffer["labels"])
        run = state["run"]
        if run is None:
            self._run_images = self._run_labels = None
        else:
            self._run_images = decode_array(run["images"])
            self._run_labels = decode_array(run["labels"])


# ----------------------------------------------------------------------
# Built-in scenario factories.
# ----------------------------------------------------------------------
@register_scenario(
    "temporal",
    label="Temporally correlated (fixed STC runs)",
    aliases=("stationary", "stc-runs"),
)
def temporal_scenario(
    dataset: SyntheticImageDataset,
    stc: int,
    rng: np.random.Generator,
    forbid_repeat: bool = True,
) -> TemporalStream:
    """The paper's base process: exact same-class runs of length STC."""
    forbid_repeat = _flag_option("forbid_repeat", forbid_repeat)
    return TemporalStream(dataset, stc, rng, forbid_repeat=forbid_repeat)


@register_scenario(
    "drift", label="Class-incremental drift", aliases=("class-incremental",)
)
def drift_scenario(
    dataset: SyntheticImageDataset,
    stc: int,
    rng: np.random.Generator,
    total_samples: int,
    num_phases: int = 2,
) -> DriftStream:
    """Growing phases that cumulatively unlock classes (ablation F)."""
    num_phases = _count_option("num_phases", num_phases, 1)
    phases = growing_phases(dataset.num_classes, num_phases)
    phase_length = max(1, total_samples // num_phases)
    return DriftStream(dataset, stc, rng, phases=phases, phase_length=phase_length)


@register_scenario(
    "cyclic-drift", label="Recurring environments", aliases=("cyclic", "recurring")
)
def cyclic_drift_scenario(
    dataset: SyntheticImageDataset,
    stc: int,
    rng: np.random.Generator,
    total_samples: int,
    num_environments: int = 2,
    cycles: int = 2,
) -> CyclicDriftStream:
    """Disjoint environments visited round-robin, ``cycles`` times each."""
    num_environments = _count_option("num_environments", num_environments, 1)
    cycles = _count_option("cycles", cycles, 1)
    phases = disjoint_phases(dataset.num_classes, num_environments)
    phase_length = max(1, total_samples // (num_environments * cycles))
    return CyclicDriftStream(
        dataset, stc, rng, phases=phases, phase_length=phase_length
    )


@register_scenario(
    "bursty",
    label="Variable STC run lengths",
    aliases=("burst",),
    composes=True,
)
def bursty_scenario(
    dataset: SyntheticImageDataset,
    stc: int,
    rng: np.random.Generator,
    base_source: Optional[StreamSource] = None,
    wrapper_layer: int = 0,
    burst_stc: Optional[int] = None,
    burst_prob: float = 0.25,
    forbid_repeat: bool = True,
) -> StreamSource:
    """Calm ``stc`` runs punctuated by ``burst_stc`` bursts.

    As a leaf this is the :class:`BurstyStream` base process; given a
    wrapped scenario (``bursty(imbalanced)``) it becomes the
    :class:`BurstyWrapper` re-timing layer over that base
    (``forbid_repeat`` applies only to the leaf form).
    """
    if burst_stc is not None:
        burst_stc = _count_option("burst_stc", burst_stc, 1)
    burst_prob = _real_option("burst_prob", burst_prob)
    forbid_repeat = _flag_option("forbid_repeat", forbid_repeat)
    if base_source is not None:
        return BurstyWrapper(
            base_source,
            rng=derive_wrapper_rng(rng, wrapper_layer, "bursty"),
            stc=stc,
            burst_stc=burst_stc,
            burst_prob=burst_prob,
        )
    return BurstyStream(
        dataset,
        stc,
        rng,
        burst_stc=burst_stc,
        burst_prob=burst_prob,
        forbid_repeat=forbid_repeat,
    )


@register_scenario(
    "imbalanced", label="Long-tailed class frequencies", aliases=("long-tail",)
)
def imbalanced_scenario(
    dataset: SyntheticImageDataset,
    stc: int,
    rng: np.random.Generator,
    imbalance: float = 0.1,
    forbid_repeat: bool = True,
) -> ImbalancedStream:
    """Geometric class-frequency decay with head/tail ratio 1/imbalance."""
    imbalance = _real_option("imbalance", imbalance)
    forbid_repeat = _flag_option("forbid_repeat", forbid_repeat)
    return ImbalancedStream(
        dataset, stc, rng, imbalance=imbalance, forbid_repeat=forbid_repeat
    )


def _count_option(name: str, value: Any, low: int) -> int:
    """A wrapper's count or length option as an int >= ``low``.

    Checked before any default derived from it is computed, so a bad
    value raises a ``ValueError`` naming the option, never a
    ``ZeroDivisionError``; a float or bool is not a count.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    return int(value)


def _real_option(name: str, value: Any) -> Any:
    """A real-valued option, unchanged once it is a finite number.

    The stream class checks its documented range.  A bool or a string
    is not a number, and an infinite one (``1e400`` parses as one)
    passes an open-ended range such as ``noise_std >= 0``; each raises
    a ``ValueError`` naming the option.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


def _flag_option(name: str, value: Any) -> bool:
    """A boolean option; ``1`` or ``abc`` is not a flag."""
    if not isinstance(value, bool):
        raise ValueError(f"{name} must be true or false, got {value!r}")
    return value


@register_scenario(
    "corrupted",
    label="Per-phase corruption shift",
    aliases=("noisy",),
    kind="wrapper",
)
def corrupted_scenario(
    dataset: SyntheticImageDataset,
    stc: int,
    rng: np.random.Generator,
    total_samples: int,
    base_source: StreamSource,
    wrapper_layer: int = 0,
    corruption_levels: int = 3,
    corruption_phase_length: Optional[int] = None,
    noise_std: float = 0.2,
    blur: bool = True,
) -> CorruptedStream:
    """Compose per-phase corruption on top of any other scenario.

    The default phase length walks through all corruption levels twice
    over the stream.
    """
    corruption_levels = _count_option("corruption_levels", corruption_levels, 2)
    if corruption_phase_length is None:
        corruption_phase_length = max(1, total_samples // (corruption_levels * 2))
    corruption_phase_length = _count_option(
        "corruption_phase_length", corruption_phase_length, 1
    )
    noise_std = _real_option("noise_std", noise_std)
    blur = _flag_option("blur", blur)
    return CorruptedStream(
        base_source,
        rng=derive_wrapper_rng(rng, wrapper_layer, "corrupted"),
        phase_length=corruption_phase_length,
        levels=corruption_levels,
        noise_std=noise_std,
        blur=blur,
    )


@register_scenario(
    "label-shift",
    label="Per-phase class-frequency re-weighting",
    aliases=("labelshift",),
    kind="wrapper",
)
def label_shift_scenario(
    dataset: SyntheticImageDataset,
    stc: int,
    rng: np.random.Generator,
    total_samples: int,
    base_source: StreamSource,
    wrapper_layer: int = 0,
    num_phases: int = 2,
    shift: float = 0.1,
    shift_phase_length: Optional[int] = None,
) -> LabelShiftStream:
    """Rotate which class group dominates, on top of any base scenario.

    The default phase length visits every class group twice over the
    stream.
    """
    num_phases = _count_option("num_phases", num_phases, 1)
    if shift_phase_length is None:
        shift_phase_length = max(1, total_samples // (num_phases * 2))
    shift_phase_length = _count_option("shift_phase_length", shift_phase_length, 1)
    shift = _real_option("shift", shift)
    return LabelShiftStream(
        base_source,
        rng=derive_wrapper_rng(rng, wrapper_layer, "label-shift"),
        num_classes=dataset.num_classes,
        phase_length=shift_phase_length,
        num_phases=num_phases,
        shift=shift,
    )


@register_scenario(
    "adversarial",
    label="Worst-case phase ordering",
    aliases=("worst-case",),
    kind="wrapper",
)
def adversarial_scenario(
    dataset: SyntheticImageDataset,
    stc: int,
    rng: np.random.Generator,
    total_samples: int,
    base_source: StreamSource,
    wrapper_layer: int = 0,
    lookahead: int = 4,
    adversarial_phase_length: Optional[int] = None,
) -> AdversarialStream:
    """Greedy most-dissimilar-next window ordering over any base scenario.

    The default phase length yields ``2 * lookahead`` reordered windows
    over the stream.  One refill reads ``lookahead`` windows ahead, so
    that read-ahead may not exceed ``total_samples``.
    """
    lookahead = _count_option("lookahead", lookahead, 2)
    if adversarial_phase_length is None:
        adversarial_phase_length = max(1, total_samples // (lookahead * 2))
    adversarial_phase_length = _count_option(
        "adversarial_phase_length", adversarial_phase_length, 1
    )
    if lookahead * adversarial_phase_length > total_samples:
        raise ValueError(
            f"lookahead x adversarial_phase_length = "
            f"{lookahead * adversarial_phase_length} samples of read-ahead "
            f"exceeds total_samples={total_samples}"
        )
    return AdversarialStream(
        base_source,
        rng=derive_wrapper_rng(rng, wrapper_layer, "adversarial"),
        num_classes=dataset.num_classes,
        phase_length=adversarial_phase_length,
        lookahead=lookahead,
    )
