"""Scenario-composition expressions: the grammar of the stream algebra.

A *composition* is a string naming a stack of stream wrappers over one
base scenario, accepted everywhere a plain scenario name is (see
:mod:`repro.data.scenarios`)::

    corrupted(bursty(imbalanced))
    corrupted(bursty(imbalanced(imbalance=0.05),burst_prob=0.5),noise_std=0.4)
    label-shift                      # wrapper alone: wraps the default base

Grammar (whitespace is insignificant between tokens)::

    expr   := name [ "(" args ")" ]
    args   := expr { "," kwarg } | kwarg { "," kwarg }
    kwarg  := key "=" value
    name   := lowercase kebab-case (the registry's naming rule)
    key    := python identifier (lowercase)
    value  := int | float | true | false | none | name

This module is *pure syntax*: it parses, renders, and walks expression
trees without touching the ``SCENARIOS`` registry.  Name resolution
(aliases, wrapper-vs-base classification, "did you mean") and
construction live in :func:`repro.data.scenarios.create_scenario` /
:func:`~repro.data.scenarios.canonical_scenario`.

Canonical rendering (:func:`format_scenario`) is stable and exact:
names lowercase, no spaces, keyword options in source order, floats via
``repr`` (the shortest round-tripping form), so a canonicalized
composition survives the checkpoint / sweep-payload round trip bitwise.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Iterator, Optional, Tuple

__all__ = [
    "ScenarioExpr",
    "CompositionSyntaxError",
    "parse_scenario",
    "format_scenario",
]

_NAME_RE = re.compile(r"[a-z0-9]+(?:-[a-z0-9]+)*")
_KEY_RE = re.compile(r"[a-z_][a-z0-9_]*")
_NUMBER_RE = re.compile(
    r"[+-]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?"
)
#: Bare keyword values that are not numbers: booleans, none, and
#: kebab-case strings (future-proofing for string-valued options).
_BARE_VALUE_RE = re.compile(r"[a-z0-9_][a-z0-9_-]*")


class CompositionSyntaxError(ValueError):
    """A scenario composition string that does not parse.

    Carries the offending expression and position so error messages can
    point at the exact spot.
    """

    def __init__(self, text: str, position: int, message: str) -> None:
        self.text = text
        self.position = position
        super().__init__(
            f"invalid scenario composition {text!r}: {message} "
            f"(at position {position})"
        )


@dataclass(frozen=True)
class ScenarioExpr:
    """One node of a parsed composition: a name, an optional wrapped
    child, and keyword options.

    The node for ``corrupted(bursty,noise_std=0.4)`` has
    ``name="corrupted"``, ``child=ScenarioExpr("bursty")``, and
    ``options={"noise_std": 0.4}``.
    """

    name: str
    child: Optional["ScenarioExpr"] = None
    options: Tuple[Tuple[str, Any], ...] = ()

    @property
    def option_dict(self) -> Dict[str, Any]:
        """Options as a plain dict (insertion order preserved)."""
        return dict(self.options)

    @property
    def depth(self) -> int:
        """Number of wrapper layers above the innermost base (leaf=0)."""
        return 0 if self.child is None else 1 + self.child.depth

    def walk(self) -> Iterator["ScenarioExpr"]:
        """Yield nodes outermost-first (the wrapping order)."""
        node: Optional[ScenarioExpr] = self
        while node is not None:
            yield node
            node = node.child

    def with_name(self, name: str) -> "ScenarioExpr":
        return replace(self, name=name)

    def with_child(self, child: Optional["ScenarioExpr"]) -> "ScenarioExpr":
        return replace(self, child=child)

    def __str__(self) -> str:
        return format_scenario(self)


class _Parser:
    """Recursive-descent parser over one composition string."""

    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0

    def error(self, message: str) -> CompositionSyntaxError:
        return CompositionSyntaxError(self.text, self.pos, message)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, char: str) -> None:
        self.skip_ws()
        if self.peek() != char:
            got = repr(self.peek()) if self.peek() else "end of input"
            raise self.error(f"expected {char!r}, got {got}")
        self.pos += 1

    def match(self, regex: re.Pattern, what: str) -> str:
        self.skip_ws()
        found = regex.match(self.text, self.pos)
        if not found:
            raise self.error(f"expected {what}")
        self.pos = found.end()
        return found.group(0)

    # ------------------------------------------------------------------
    def parse(self) -> ScenarioExpr:
        expr = self.parse_expr()
        self.skip_ws()
        if self.pos != len(self.text):
            raise self.error(
                f"unexpected trailing input {self.text[self.pos:]!r}"
            )
        return expr

    def parse_expr(self) -> ScenarioExpr:
        name = self.match(_NAME_RE, "a scenario name (lowercase kebab-case)")
        self.skip_ws()
        if self.peek() != "(":
            return ScenarioExpr(name)
        self.expect("(")
        child, options = self.parse_args()
        self.expect(")")
        return ScenarioExpr(name, child=child, options=tuple(options))

    def parse_args(self) -> Tuple[Optional[ScenarioExpr], list]:
        self.skip_ws()
        if self.peek() == ")":
            raise self.error(
                "empty parentheses: drop them or name a wrapped scenario"
            )
        child: Optional[ScenarioExpr] = None
        options: list = []
        seen: set = set()
        if not self._at_kwarg():
            child = self.parse_expr()
            self.skip_ws()
            if self.peek() == ",":
                self.pos += 1
            elif self.peek() != ")":
                got = repr(self.peek()) if self.peek() else "end of input"
                raise self.error(f"expected ',' or ')', got {got}")
            else:
                return child, options
        while True:
            self.skip_ws()
            if self.peek() == ")" and not options and child is not None:
                # trailing comma after the child: reject for canonicality
                raise self.error("trailing comma before ')'")
            key = self.match(_KEY_RE, "an option name (key=value)")
            if key in seen:
                raise self.error(f"duplicate option {key!r}")
            seen.add(key)
            self.expect("=")
            options.append((key, self.parse_value()))
            self.skip_ws()
            if self.peek() == ",":
                self.pos += 1
                continue
            return child, options

    def _at_kwarg(self) -> bool:
        """Lookahead: does an identifier followed by '=' start here?"""
        probe = self.pos
        while probe < len(self.text) and self.text[probe].isspace():
            probe += 1
        found = _KEY_RE.match(self.text, probe)
        if not found:
            return False
        probe = found.end()
        while probe < len(self.text) and self.text[probe].isspace():
            probe += 1
        return probe < len(self.text) and self.text[probe] == "="

    def parse_value(self) -> Any:
        self.skip_ws()
        number = _NUMBER_RE.match(self.text, self.pos)
        if number:
            self.pos = number.end()
            raw = number.group(0)
            if re.fullmatch(r"[+-]?\d+", raw):
                return int(raw)
            return float(raw)
        bare = self.match(_BARE_VALUE_RE, "a value (number, true/false, none, or name)")
        lowered = bare.lower()
        if lowered == "true":
            return True
        if lowered == "false":
            return False
        if lowered == "none":
            return None
        return bare


def parse_scenario(text: str) -> ScenarioExpr:
    """Parse a composition string (or plain name) into its expression tree.

    Raises :class:`CompositionSyntaxError` (a ``ValueError``) on
    malformed input, pointing at the offending position.
    """
    if not isinstance(text, str) or not text.strip():
        raise CompositionSyntaxError(
            str(text), 0, "a scenario must be a non-empty string"
        )
    return _Parser(text.strip()).parse()


def _format_value(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "none"
    if isinstance(value, float):
        return repr(value)  # shortest exact round-trip form
    return str(value)


def format_scenario(expr: ScenarioExpr) -> str:
    """Render an expression tree to its canonical string form.

    ``parse_scenario(format_scenario(e)) == e`` and rendering is
    idempotent, which is what lets ``config.scenario`` round-trip
    through checkpoints and sweep wire payloads bitwise.
    """
    parts = []
    if expr.child is not None:
        parts.append(format_scenario(expr.child))
    parts.extend(f"{key}={_format_value(value)}" for key, value in expr.options)
    if not parts:
        return expr.name
    return f"{expr.name}({','.join(parts)})"
