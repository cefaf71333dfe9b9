"""The repo's pytest configuration keeps a falsified hypothesis property
an ordinary test failure that shows its falsifying example."""

import pathlib
import subprocess
import sys

PYPROJECT = pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml"

FALSIFIED = """
from hypothesis import given, strategies as st


@given(st.integers(0, 10))
def test_small(n):
    assert n < 5
"""


def test_falsified_property_reports_its_example(tmp_path):
    """Every DeprecationWarning is an error under this config; the one
    hypothesis's failure report triggers (libcst importing
    ``mypy_extensions.TypedDict``) must not abort the session."""
    (tmp_path / "test_falsified.py").write_text(FALSIFIED)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider",
         "test_falsified.py"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    assert "Falsifying example" in run.stdout
