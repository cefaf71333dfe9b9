"""Docs-consistency checker: registries and docs cannot drift apart.

Asserts, in both directions:

* every experiment id (``repro.cli.EXPERIMENTS``), backend
  (``BACKENDS``), scenario (``SCENARIOS``), scenario wrapper
  (``scenario_wrapper_names()``), aggregator (``AGGREGATORS``), client
  sampler (``CLIENT_SAMPLERS``), serve admission policy
  (``SERVE_POLICIES``), and wire format (``WIRE_FORMATS``) appears in
  the matching ``<!-- inventory:KIND -->`` block of docs/API.md, and
  every name listed there is actually registered;
* every metric name in ``repro.obs.METRIC_INVENTORY`` appears in the
  ``<!-- inventory:metrics -->`` block of docs/OBSERVABILITY.md, and
  every dotted name listed there is in the code inventory;
* every registered scenario has a ``## `name` `` section in
  docs/SCENARIOS.md, and every such section names a registered
  scenario;
* every registered aggregator and client sampler has a ``## `name` ``
  section in docs/FLEET.md, and every such section names a registered
  aggregator or client sampler;
* every registered serve admission policy has a ``## `name` ``
  section in docs/SERVE.md, and every such section names a registered
  serve policy;
* the ``<!-- cli:list -->`` block of README.md is exactly what
  ``python -m repro.cli --list`` prints.

Run from the repo root (CI does)::

    PYTHONPATH=src python tools/check_docs.py

Exit status 0 means consistent; 1 prints every mismatch found.
"""

from __future__ import annotations

import contextlib
import io
import pathlib
import re
import sys
from typing import Dict, List, Set

ROOT = pathlib.Path(__file__).resolve().parent.parent
API_MD = ROOT / "docs" / "API.md"
SCENARIOS_MD = ROOT / "docs" / "SCENARIOS.md"
FLEET_MD = ROOT / "docs" / "FLEET.md"
SERVE_MD = ROOT / "docs" / "SERVE.md"
OBSERVABILITY_MD = ROOT / "docs" / "OBSERVABILITY.md"
README_MD = ROOT / "README.md"

INVENTORY_RE = re.compile(
    r"<!--\s*inventory:([a-z-]+)\s*-->(.*?)<!--\s*/inventory\s*-->", re.S
)
BACKTICKED_RE = re.compile(r"`([a-z0-9]+(?:-[a-z0-9]+)*)`")
#: Metric names are dotted (``fleet.bytes_sent``), unlike kebab-case
#: component names, so the metrics inventory uses its own pattern.
METRIC_NAME_RE = re.compile(r"`([a-z]+(?:\.[a-z0-9_]+)+)`")
SECTION_RE = re.compile(r"^## `([a-z0-9-]+)`", re.M)
CLI_LIST_RE = re.compile(r"<!--\s*cli:list\s*-->\s*```text\n(.*?)```", re.S)
SCENARIO_SECTION_RE = SECTION_RE  # kept: pre-fleet name of the pattern


def parse_inventories(text: str) -> Dict[str, Set[str]]:
    """Inventory-block name sets of an API.md-style document."""
    inventories: Dict[str, Set[str]] = {}
    for kind, body in INVENTORY_RE.findall(text):
        inventories[kind] = set(BACKTICKED_RE.findall(body))
    return inventories


def registered_names() -> Dict[str, Set[str]]:
    """The live registry contents the docs must mirror."""
    from repro.cli import EXPERIMENTS
    from repro.registry import (
        AGGREGATORS,
        BACKENDS,
        CLIENT_SAMPLERS,
        SCENARIOS,
        SERVE_POLICIES,
        WIRE_FORMATS,
        scenario_wrapper_names,
    )

    return {
        "experiments": set(EXPERIMENTS),
        "backends": set(BACKENDS.names()),
        "scenarios": set(SCENARIOS.names()),
        "scenario-wrappers": set(scenario_wrapper_names()),
        "aggregators": set(AGGREGATORS.names()),
        "client-samplers": set(CLIENT_SAMPLERS.names()),
        "serve-policies": set(SERVE_POLICIES.names()),
        "wire-formats": set(WIRE_FORMATS.names()),
    }


def check() -> List[str]:
    """Every mismatch found (empty = consistent)."""
    problems: List[str] = []
    api_text = API_MD.read_text()
    inventories = parse_inventories(api_text)
    for kind, registered in registered_names().items():
        documented = inventories.get(kind)
        if documented is None:
            problems.append(
                f"docs/API.md has no <!-- inventory:{kind} --> block"
            )
            continue
        for name in sorted(registered - documented):
            problems.append(
                f"{kind}: {name!r} is registered but missing from the "
                "docs/API.md inventory"
            )
        for name in sorted(documented - registered):
            problems.append(
                f"{kind}: {name!r} is listed in the docs/API.md inventory "
                "but not registered"
            )

    from repro.registry import (
        AGGREGATORS,
        CLIENT_SAMPLERS,
        SCENARIOS,
        SERVE_POLICIES,
    )

    problems += _check_sections(
        SCENARIOS_MD, "scenario", set(SCENARIOS.names())
    )
    problems += _check_sections(
        FLEET_MD,
        "aggregator/client sampler",
        set(AGGREGATORS.names()) | set(CLIENT_SAMPLERS.names()),
    )
    problems += _check_sections(
        SERVE_MD, "serve policy", set(SERVE_POLICIES.names())
    )
    problems += _check_metric_inventory()
    problems += _check_cli_listing()
    return problems


def _check_cli_listing() -> List[str]:
    """README.md's ``--list`` block must be the command's exact output."""
    from repro.cli import main as cli_main

    match = CLI_LIST_RE.search(README_MD.read_text())
    if match is None:
        return ["README.md has no <!-- cli:list --> block"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        cli_main(["--list"])
    if match.group(1) != out.getvalue():
        return [
            "README.md --list block differs from what "
            "`python -m repro.cli --list` prints; paste the command's output"
        ]
    return []


def _check_metric_inventory() -> List[str]:
    """docs/OBSERVABILITY.md's metric table must mirror
    ``repro.obs.METRIC_INVENTORY`` in both directions."""
    from repro.obs import METRIC_INVENTORY

    if not OBSERVABILITY_MD.exists():
        return ["docs/OBSERVABILITY.md is missing"]
    problems: List[str] = []
    inventoried = set(METRIC_INVENTORY)
    blocks = dict(INVENTORY_RE.findall(OBSERVABILITY_MD.read_text()))
    body = blocks.get("metrics")
    if body is None:
        return ["docs/OBSERVABILITY.md has no <!-- inventory:metrics --> block"]
    documented = set(METRIC_NAME_RE.findall(body))
    for name in sorted(inventoried - documented):
        problems.append(
            f"metric: {name!r} is in repro.obs.METRIC_INVENTORY but "
            "missing from the docs/OBSERVABILITY.md inventory"
        )
    for name in sorted(documented - inventoried):
        problems.append(
            f"metric: {name!r} is listed in the docs/OBSERVABILITY.md "
            "inventory but not in repro.obs.METRIC_INVENTORY"
        )
    return problems


def _check_sections(
    doc: pathlib.Path, kind: str, registered: Set[str]
) -> List[str]:
    """Per-component ``## `name` `` sections must mirror a registry."""
    problems: List[str] = []
    if not doc.exists():
        return [f"{doc.relative_to(ROOT)} is missing"]
    sections = set(SECTION_RE.findall(doc.read_text()))
    for name in sorted(registered - sections):
        problems.append(
            f"{kind} {name!r} is registered but has no '## `{name}`' "
            f"section in {doc.relative_to(ROOT)}"
        )
    for name in sorted(sections - registered):
        problems.append(
            f"{doc.relative_to(ROOT)} documents {kind} {name!r}, which is "
            "not registered"
        )
    return problems


def main() -> int:
    problems = check()
    if problems:
        for problem in problems:
            print(f"docs-consistency: {problem}", file=sys.stderr)
        return 1
    print("docs-consistency: registries and docs agree")
    return 0


if __name__ == "__main__":
    sys.exit(main())
