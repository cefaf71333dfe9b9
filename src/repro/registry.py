"""Typed, decorator-based component registries — the extension surface.

Every pluggable ingredient of the framework (replacement policies,
dataset recipes, encoder architectures, augmentation pipelines, array
execution backends, stream scenarios, fleet model aggregators and
client samplers, serve admission policies, wire formats) is registered
by name in one of the module-level registries below.  New components
plug in with a decorator and zero edits to ``repro`` internals::

    from repro.registry import register_policy

    @register_policy("my-policy", label="My Policy", aliases=("mine",))
    class MyPolicy(ReplacementPolicy):
        def __init__(self, capacity, **_):
            ...

The registered name is then accepted everywhere a built-in name is:
``Session.from_config(cfg).with_policy("my-policy")``, the CLI's
``--policy`` flag, and :func:`create_policy`.

Factories are invoked through :meth:`Registry.create`, which filters
the standard keyword set down to what the factory's signature accepts,
so a policy that needs only ``capacity`` simply declares ``capacity``
(plus ``**_`` or nothing) and never sees the scorer or RNG.

Names are validated (lowercase kebab-case), duplicates are rejected,
and unknown names raise a :class:`KeyError` with a "did you mean ...?"
suggestion (see DESIGN.md §6).
"""

from __future__ import annotations

import difflib
import inspect
import re
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "Registry",
    "RegistryEntry",
    "UnknownComponentError",
    "POLICIES",
    "DATASETS",
    "ENCODERS",
    "AUGMENTS",
    "BACKENDS",
    "SCENARIOS",
    "AGGREGATORS",
    "SERVE_POLICIES",
    "WIRE_FORMATS",
    "CLIENT_SAMPLERS",
    "register_policy",
    "register_dataset",
    "register_encoder",
    "register_augment",
    "register_backend",
    "register_scenario",
    "register_aggregator",
    "register_serve_policy",
    "register_wire_format",
    "register_client_sampler",
    "create_policy",
    "canonical_policy_names",
    "policy_names",
    "policy_labels",
    "dataset_names",
    "scenario_names",
    "scenario_wrapper_names",
    "aggregator_names",
    "serve_policy_names",
]

#: Valid component names: lowercase kebab-case, digits allowed.
_NAME_RE = re.compile(r"^[a-z0-9]+(?:-[a-z0-9]+)*$")


class UnknownComponentError(KeyError, ValueError):
    """Raised on unknown registry names.

    Subclasses both ``KeyError`` (it is a failed lookup) and
    ``ValueError`` (the pre-registry ``make_policy`` raised ValueError,
    and existing call sites catch that).
    """

    def __str__(self) -> str:  # KeyError would repr() the message
        return self.args[0] if self.args else ""


@dataclass
class RegistryEntry:
    """One registered component factory plus its display metadata."""

    name: str
    factory: Callable[..., Any]
    label: Optional[str] = None
    aliases: Tuple[str, ...] = ()
    metadata: Dict[str, Any] = field(default_factory=dict)

    @property
    def display_label(self) -> str:
        return self.label if self.label is not None else self.name


class Registry:
    """A named collection of component factories.

    Parameters
    ----------
    kind:
        Human-readable component kind ("policy", "dataset", ...) used in
        error messages.
    ensure:
        Optional callable importing the modules that register the
        built-in components.  Invoked lazily before any lookup or
        listing so import order never matters.
    """

    def __init__(self, kind: str, ensure: Optional[Callable[[], None]] = None) -> None:
        self.kind = kind
        self._entries: Dict[str, RegistryEntry] = {}
        self._aliases: Dict[str, str] = {}
        self._ensure = ensure
        self._ensured = False
        self._ensuring = False

    # -- registration ---------------------------------------------------
    def register(
        self,
        name: str,
        *,
        label: Optional[str] = None,
        aliases: Sequence[str] = (),
        **metadata: Any,
    ) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
        """Decorator registering ``factory`` (a class or callable) as ``name``."""

        def decorate(factory: Callable[..., Any]) -> Callable[..., Any]:
            self.add(name, factory, label=label, aliases=aliases, **metadata)
            return factory

        return decorate

    def add(
        self,
        name: str,
        factory: Callable[..., Any],
        *,
        label: Optional[str] = None,
        aliases: Sequence[str] = (),
        **metadata: Any,
    ) -> RegistryEntry:
        """Imperative registration (the decorator's workhorse)."""
        self._validate_name(name)
        for alias in aliases:
            self._validate_name(alias)
        if not callable(factory):
            raise TypeError(f"{self.kind} factory for {name!r} is not callable")
        self._reject_positional_only(name, factory)
        taken = self._taken(name)
        if taken:
            raise ValueError(
                f"{self.kind} name {name!r} is already registered ({taken})"
            )
        for alias in aliases:
            taken = self._taken(alias)
            if taken:
                raise ValueError(
                    f"{self.kind} alias {alias!r} is already registered ({taken})"
                )
        entry = RegistryEntry(
            name=name,
            factory=factory,
            label=label,
            aliases=tuple(aliases),
            metadata=dict(metadata),
        )
        self._entries[name] = entry
        for alias in entry.aliases:
            self._aliases[alias] = name
        return entry

    def unregister(self, name: str) -> None:
        """Remove a registered component (test/plugin teardown helper).

        Given an alias, only the alias mapping is removed; given a
        canonical name, the entry and all its aliases are removed.
        """
        self.ensure_builtins()
        if name in self._aliases:
            canonical = self._aliases.pop(name)
            entry = self._entries[canonical]
            entry.aliases = tuple(a for a in entry.aliases if a != name)
            return
        entry = self._entries.pop(name, None)
        if entry is None:
            raise KeyError(f"{self.kind} {name!r} is not registered")
        for alias in entry.aliases:
            self._aliases.pop(alias, None)

    # -- lookup ---------------------------------------------------------
    def get(self, name: str) -> RegistryEntry:
        """Resolve ``name`` (canonical or alias) to its entry.

        Raises :class:`UnknownComponentError` (a ``KeyError`` and
        ``ValueError``) with a "did you mean ...?" suggestion when the
        name is unknown.
        """
        self.ensure_builtins()
        canonical = self._aliases.get(name, name)
        entry = self._entries.get(canonical)
        if entry is None:
            raise UnknownComponentError(self._unknown_message(name))
        return entry

    def create(self, name: str, /, **kwargs: Any) -> Any:
        """Instantiate the component, passing only accepted keywords.

        The factory's signature decides which of ``kwargs`` it receives:
        a ``**kwargs`` catch-all receives everything, otherwise the set
        is filtered down to declared parameter names.
        """
        return self.create_with_required(name, (), **kwargs)

    def create_with_required(
        self, name: str, required: Sequence[str], /, **kwargs: Any
    ) -> Any:
        """Like :meth:`create`, but the keys named in ``required`` must
        be accepted by the factory — they are explicit caller options,
        not offers, and silently dropping one would misconfigure the
        component.  Raises ``TypeError`` naming the rejected keys.
        """
        entry = self.get(name)
        accepted = self._accepted_kwargs(entry.factory, kwargs)
        rejected = sorted(set(required) - set(accepted))
        if rejected:
            raise TypeError(
                f"{self.kind} {name!r} does not accept option(s): "
                f"{', '.join(rejected)}"
            )
        return entry.factory(**accepted)

    @staticmethod
    def _accepted_kwargs(
        factory: Callable[..., Any], kwargs: Dict[str, Any]
    ) -> Dict[str, Any]:
        try:
            signature = inspect.signature(factory)
        except (TypeError, ValueError):  # builtins without introspection
            return dict(kwargs)
        params = signature.parameters.values()
        if any(p.kind is inspect.Parameter.VAR_KEYWORD for p in params):
            return dict(kwargs)
        accepted = {
            p.name
            for p in params
            if p.kind
            in (inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.KEYWORD_ONLY)
        }
        return {k: v for k, v in kwargs.items() if k in accepted}

    # -- introspection --------------------------------------------------
    def names(self) -> List[str]:
        """Sorted canonical names of all registered components."""
        self.ensure_builtins()
        return sorted(self._entries)

    def labels(self) -> Dict[str, str]:
        """Canonical name -> display label."""
        self.ensure_builtins()
        return {name: entry.display_label for name, entry in self._entries.items()}

    def aliases(self) -> Dict[str, str]:
        """Alias -> canonical name."""
        self.ensure_builtins()
        return dict(self._aliases)

    def entries(self) -> List[RegistryEntry]:
        self.ensure_builtins()
        return [self._entries[name] for name in sorted(self._entries)]

    def __contains__(self, name: str) -> bool:
        self.ensure_builtins()
        return name in self._entries or name in self._aliases

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        self.ensure_builtins()
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Registry(kind={self.kind!r}, names={self.names()})"

    # -- internals ------------------------------------------------------
    def ensure_builtins(self) -> None:
        """Import the modules registering built-in components (once).

        Marked done only on success, so a failed import (transient or
        environmental) surfaces again on the next lookup instead of
        leaving a permanently empty registry.  A separate in-progress
        flag guards against re-entry while the imports run.
        """
        if self._ensured or self._ensure is None or self._ensuring:
            return
        self._ensuring = True
        try:
            self._ensure()
            self._ensured = True
        finally:
            self._ensuring = False

    def _reject_positional_only(self, name: str, factory: Callable[..., Any]) -> None:
        """Registry factories are invoked with keywords only; a required
        positional-only parameter could never be supplied, so reject it
        at registration instead of failing confusingly at create()."""
        try:
            signature = inspect.signature(factory)
        except (TypeError, ValueError):
            return
        bad = [
            p.name
            for p in signature.parameters.values()
            if p.kind is inspect.Parameter.POSITIONAL_ONLY
            and p.default is inspect.Parameter.empty
        ]
        if bad:
            raise ValueError(
                f"{self.kind} factory for {name!r} has required positional-only "
                f"parameter(s) {', '.join(bad)}; registry factories are called "
                "with keyword arguments only"
            )

    def _validate_name(self, name: str) -> None:
        if not isinstance(name, str) or not _NAME_RE.match(name):
            raise ValueError(
                f"invalid {self.kind} name {name!r}: names must be lowercase "
                "kebab-case (letters, digits, single dashes)"
            )

    def _taken(self, name: str) -> Optional[str]:
        if name in self._entries:
            return "as a name"
        if name in self._aliases:
            return f"as an alias of {self._aliases[name]!r}"
        return None

    def _unknown_message(self, name: str) -> str:
        known = sorted(set(self._entries) | set(self._aliases))
        message = f"unknown {self.kind} {name!r}; known: {', '.join(known) or '(none)'}"
        close = difflib.get_close_matches(name, known, n=1, cutoff=0.5)
        if close:
            message += f" — did you mean {close[0]!r}?"
        return message


# ----------------------------------------------------------------------
# The built-in registries.  ``ensure`` imports the defining modules so
# that looking up or listing built-ins works regardless of what the
# caller imported first.
# ----------------------------------------------------------------------
def _ensure_policies() -> None:
    import repro.core.replacement  # noqa: F401  (registers contrast-scoring)
    import repro.selection  # noqa: F401  (registers the four baselines)


def _ensure_datasets() -> None:
    import repro.data.datasets  # noqa: F401


def _ensure_encoders() -> None:
    import repro.nn.resnet  # noqa: F401


def _ensure_augments() -> None:
    import repro.data.augment  # noqa: F401


def _ensure_backends() -> None:
    import repro.nn.backend  # noqa: F401  (registers numpy + fused)


def _ensure_scenarios() -> None:
    import repro.data.scenarios  # noqa: F401  (registers the built-in streams)


def _ensure_aggregators() -> None:
    import repro.fleet.aggregators  # noqa: F401  (registers the built-in rules)


def _ensure_serve_policies() -> None:
    import repro.serve.policies  # noqa: F401  (registers block/shed/degrade)


def _ensure_wire_formats() -> None:
    import repro.experiments.wire  # noqa: F401  (registers json-b64/shm/delta + compressed deltas)


def _ensure_client_samplers() -> None:
    import repro.fleet.sampling  # noqa: F401  (registers uniform/round-robin)


POLICIES = Registry("policy", ensure=_ensure_policies)
DATASETS = Registry("dataset", ensure=_ensure_datasets)
ENCODERS = Registry("encoder", ensure=_ensure_encoders)
AUGMENTS = Registry("augment", ensure=_ensure_augments)
BACKENDS = Registry("backend", ensure=_ensure_backends)
SCENARIOS = Registry("scenario", ensure=_ensure_scenarios)
AGGREGATORS = Registry("aggregator", ensure=_ensure_aggregators)
SERVE_POLICIES = Registry("serve policy", ensure=_ensure_serve_policies)
WIRE_FORMATS = Registry("wire format", ensure=_ensure_wire_formats)
CLIENT_SAMPLERS = Registry("client sampler", ensure=_ensure_client_samplers)

register_policy = POLICIES.register
register_dataset = DATASETS.register
register_encoder = ENCODERS.register
register_augment = AUGMENTS.register
register_backend = BACKENDS.register
register_scenario = SCENARIOS.register
register_aggregator = AGGREGATORS.register
register_serve_policy = SERVE_POLICIES.register
register_wire_format = WIRE_FORMATS.register
register_client_sampler = CLIENT_SAMPLERS.register


def create_policy(
    name: str,
    *,
    capacity: int,
    scorer: Any = None,
    rng: Any = None,
    temperature: float = 0.5,
    lazy_interval: Optional[int] = None,
    score_momentum: float = 0.0,
    **extra: Any,
) -> Any:
    """Construct a replacement policy by registered name.

    ``capacity`` (the buffer size the policy must match) is required;
    everything else has a sensible default for policies that don't use
    it.

    This is the canonical successor of the old ``make_policy`` if/elif
    chain: the standard keyword set (scorer, capacity, rng, temperature,
    lazy_interval, score_momentum) is offered to the registered factory,
    which receives only the keywords its signature declares.  Keys the
    *caller* adds via ``extra`` are explicit options, not offers: a
    factory that does not accept one raises ``TypeError`` (so a typo'd
    option cannot silently configure nothing).
    """
    return POLICIES.create_with_required(
        name,
        tuple(extra),
        scorer=scorer,
        capacity=capacity,
        rng=rng,
        temperature=temperature,
        lazy_interval=lazy_interval,
        score_momentum=score_momentum,
        **extra,
    )


def canonical_policy_names(names: Sequence[str]) -> Tuple[str, ...]:
    """Resolve a policy roster to canonical names (aliases collapsed).

    Harnesses that key result dicts by policy name use this so an
    aliased roster entry ("cs") lands under the same key the run's
    :class:`~repro.session.StreamRunResult` reports.
    """
    return tuple(POLICIES.get(name).name for name in names)


def policy_names() -> List[str]:
    """Sorted names of all registered policies."""
    return POLICIES.names()


def policy_labels() -> Dict[str, str]:
    """Policy name -> pretty label (paper figure captions)."""
    return POLICIES.labels()


def dataset_names() -> List[str]:
    """Sorted names of all registered datasets."""
    return DATASETS.names()


def scenario_names() -> List[str]:
    """Sorted names of all registered stream scenarios."""
    return SCENARIOS.names()


def scenario_wrapper_names() -> List[str]:
    """Sorted names of scenarios registered as wrappers.

    Wrappers pass ``kind="wrapper"`` metadata at registration and
    compose over any scenario via composition syntax
    (``"corrupted(bursty(imbalanced))"``); see
    :mod:`repro.data.scenarios`.
    """
    return [
        entry.name
        for entry in SCENARIOS.entries()
        if entry.metadata.get("kind") == "wrapper"
    ]


def aggregator_names() -> List[str]:
    """Sorted names of all registered fleet model aggregators."""
    return AGGREGATORS.names()


def serve_policy_names() -> List[str]:
    """Sorted names of all registered serve admission policies."""
    return SERVE_POLICIES.names()
