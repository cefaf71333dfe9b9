"""Every public top-level function and class of ``src/repro`` is named
outside the test suite.

A name only tests call is code no workload runs.  The scan takes each
module's top-level ``def`` and ``class`` statements, skipping registry
entries (their registry reaches them by name), and looks for the name as
a whole word in what users and workloads read: ``src/``,
``benchmarks/``, ``examples/``, ``tools/``, ``perfbench/``, ``docs/``,
README.md, DESIGN.md and the CI workflows.  A name's own definition
line, ``__all__`` entries and the import lines of package ``__init__``
modules do not count.
"""

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src", "benchmarks", "examples", "tools", "perfbench", "docs", ".github")
SCANNED_FILES = ("README.md", "DESIGN.md")
SUFFIXES = {".py", ".md", ".yml", ".yaml"}
WORD = re.compile(r"\w+")

#: Names kept although nothing outside the tests names them, each with
#: its reason.
ALLOWLIST = {
    "autograd_grad_wrt_anchor": (
        "the autograd reference the tests compare score_gradient_relation's "
        "analytic NT-Xent anchor gradient against"
    ),
}


def _registered(node) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name.startswith("register_"):
            return True
    return False


def public_definitions(root=ROOT):
    """``(name, path, line)`` of every public, unregistered top-level
    function and class."""
    found = []
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if (
                isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not node.name.startswith("_")
                and not _registered(node)
            ):
                found.append((node.name, path, node.lineno))
    return found


def _uncounted(path: Path, text: str):
    """Line numbers of ``__all__`` and, in a package ``__init__``, of its
    imports: they list names without using them."""
    if path.suffix != ".py":
        return set()
    lines = set()
    for node in ast.parse(text).body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AugAssign):
            targets = [node.target]
        else:
            targets = []
        listed = any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)
        reexported = path.name == "__init__.py" and isinstance(node, (ast.Import, ast.ImportFrom))
        if listed or reexported:
            lines.update(range(node.lineno, node.end_lineno + 1))
    return lines


def scanned_paths(root=ROOT):
    paths = [root / name for name in SCANNED_FILES]
    for directory in SCANNED:
        paths += sorted(
            path
            for path in (root / directory).rglob("*")
            if path.is_file() and path.suffix in SUFFIXES and "__pycache__" not in path.parts
        )
    return paths


def unreachable(root=ROOT):
    """``{name: "path:line"}`` of every definition named nowhere else."""
    words = Counter()
    lines = {}
    for path in scanned_paths(root):
        text = path.read_text(encoding="utf-8")
        skip = _uncounted(path, text)
        lines[path] = text.splitlines()
        for number, line in enumerate(lines[path], 1):
            if number not in skip:
                words.update(WORD.findall(line))
    definitions = public_definitions(root)
    for name, path, number in definitions:
        words[name] -= WORD.findall(lines[path][number - 1]).count(name)
    return {
        name: f"{path.relative_to(root)}:{number}"
        for name, path, number in definitions
        if words[name] <= 0
    }


def test_every_public_name_is_named_outside_the_tests():
    found = unreachable()
    stray = sorted(f"{found[name]} {name}" for name in found if name not in ALLOWLIST)
    assert not stray, (
        "only tests name these; delete them with their tests, or allowlist "
        "one with its reason:\n" + "\n".join(stray)
    )


def test_allowlisted_names_are_still_unreachable():
    stale = sorted(set(ALLOWLIST) - set(unreachable()))
    assert not stale, f"named outside the tests now; drop from ALLOWLIST: {stale}"


# -- the scan itself, on a small tree ------------------------------------


def _tree(tmp_path, files):
    """A repository root holding ``files`` (``{relative path: text}``)
    plus empty top-level documents."""
    for name in SCANNED_FILES:
        (tmp_path / name).write_text("", encoding="utf-8")
    for relative, text in files.items():
        path = tmp_path / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    return tmp_path


LONELY = {
    "src/repro/mod.py": "def lonely():\n    return 1\n\n\nclass Alone:\n    pass\n",
    "tests/test_mod.py": "from repro.mod import Alone, lonely\n\nlonely()\nAlone()\n",
}


def test_scan_reports_names_only_tests_use(tmp_path):
    root = _tree(tmp_path, LONELY)
    assert unreachable(root) == {"lonely": "src/repro/mod.py:1", "Alone": "src/repro/mod.py:5"}


def test_all_and_package_reexports_do_not_count(tmp_path):
    root = _tree(
        tmp_path,
        {
            **LONELY,
            "src/repro/__init__.py": (
                "from repro.mod import (\n    Alone,\n    lonely,\n)\n\n"
                '__all__ = [\n    "Alone",\n    "lonely",\n]\n'
            ),
        },
    )
    assert set(unreachable(root)) == {"lonely", "Alone"}


@pytest.mark.parametrize(
    "caller",
    [
        "src/repro/other.py",
        "examples/demo.py",
        "tools/report.py",
        "docs/guide.md",
        ".github/workflows/ci.yml",
        "README.md",
    ],
)
def test_a_mention_outside_the_tests_counts(tmp_path, caller):
    root = _tree(tmp_path, {**LONELY, caller: "lonely()\n"})
    assert unreachable(root) == {"Alone": "src/repro/mod.py:5"}


def test_registry_entries_and_private_names_are_not_scanned(tmp_path):
    root = _tree(
        tmp_path,
        {
            "src/repro/mod.py": (
                '@register_policy("mine")\nclass Mine:\n    pass\n\n\n'
                "@registry.register_scenario(\"s\")\ndef scenario():\n    pass\n\n\n"
                "def _helper():\n    pass\n"
            ),
        },
    )
    assert unreachable(root) == {}
