"""The comparison ``tools/fingerprints.py --against REF`` prints, on
synthetic digest lines (no workload runs)."""

import importlib.util
import os
import pathlib
import sys
from unittest import mock

import numpy  # noqa: F401 - loaded before the tool so the restore below keeps it
import pytest

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "fingerprints.py"


@pytest.fixture(scope="module")
def tool():
    # Loading the tool pins BLAS threads, drops REPRO_* variables and
    # puts perfbench/ on the path, as a script run should; none of that
    # may leak into the test process.
    with mock.patch.dict(os.environ), mock.patch.object(sys, "path", list(sys.path)), (
        mock.patch.dict(sys.modules)
    ):
        spec = importlib.util.spec_from_file_location("fingerprints_tool", TOOL)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return module


def test_parse_lines(tool):
    lines = ["stream 4c8e379999e4488b", "", "scenario.corrupted(bursty(imbalanced)) cfc1"]
    assert tool.parse_lines(lines) == {
        "stream": "4c8e379999e4488b",
        "scenario.corrupted(bursty(imbalanced))": "cfc1",
    }


def test_equal_lines_are_same(tool):
    digests = {"stream": "aa", "fleet": "bb"}
    assert tool.compare(digests, dict(digests)) == ["stream aa aa same", "fleet bb bb same"]


def test_moved_line(tool):
    rows = tool.compare({"stream": "aa", "fleet": "bb"}, {"stream": "aa", "fleet": "cc"})
    assert rows == ["stream aa aa same", "fleet bb cc MOVED"]


def test_missing_lines_read_dash_and_move(tool):
    rows = tool.compare({"stream": "aa", "gone": "dd"}, {"stream": "aa", "new": "ee"})
    assert rows == ["stream aa aa same", "gone dd - MOVED", "new - ee MOVED"]


def test_exit_status_follows_resume_only(tool):
    same = {"session.straight": "ab", "session.resumed": "ab"}
    assert not tool.resume_differs(same)
    assert tool.resume_differs({"session.straight": "ab", "session.resumed": "ba"})
