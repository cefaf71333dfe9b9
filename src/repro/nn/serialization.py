"""Checkpointing: one ``.npz`` writer and one reader for every state file.

:func:`save_module` stores a module's parameters and buffers;
:meth:`repro.session.Session.save_checkpoint` and
:meth:`repro.fleet.FleetCoordinator.save_checkpoint` store a JSON
``meta`` entry (a 0-d string array) beside their prefixed arrays.  A
checkpoint is outside bytes, so :func:`read_checkpoint` turns every
defect of the file, and every ``meta`` value its ``check`` rejects, into
one :class:`ValueError` that names the path; :func:`check_json` checks
a ``meta`` value against the JSON shape its reader expects, and
:func:`check_arrays` the arrays against the state its reader builds.
"""

from __future__ import annotations

import json
import os
import sys
import zipfile
from typing import Any, Callable, Dict, Mapping, Optional, Sequence, Tuple, TypeVar

import numpy as np

from repro.nn.layers import Module

__all__ = [
    "save_state",
    "load_state",
    "save_module",
    "load_module",
    "read_checkpoint",
    "check_json",
    "check_arrays",
    "check_version",
    "strip_prefix",
]

_T = TypeVar("_T")

#: The leading bytes of a zip archive with entries, and of an empty one.
_ZIP_MAGIC = (b"PK\x03\x04", b"PK\x05\x06")


def _npz_path(path: str) -> str:
    # np.savez appends the suffix silently, so every path gets it here.
    return path if path.endswith(".npz") else path + ".npz"


def _unreadable(path: str, detail: str) -> ValueError:
    return ValueError(f"cannot read checkpoint {path!r}: {detail}")


def strip_prefix(state: Mapping[str, _T], prefix: str) -> Dict[str, _T]:
    """The entries of ``state`` under ``prefix``, prefix removed, keys interned."""
    return {
        sys.intern(key[len(prefix) :]): value
        for key, value in state.items()
        if key.startswith(prefix)
    }


#: The JSON kinds :func:`check_json` names, with the test for each.
_KINDS = {
    "an integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "a number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "a string": lambda v: isinstance(v, str),
    "a boolean": lambda v: isinstance(v, bool),
    "an object": lambda v: isinstance(v, dict),
}


def _describe(shape: Any) -> str:
    if shape is None:
        return "null"
    if isinstance(shape, tuple):
        return " or ".join(_describe(alternative) for alternative in shape)
    if isinstance(shape, list):
        return "a list"
    return shape if isinstance(shape, str) else "an object"


def _fits(value: Any, shape: Any) -> bool:
    """Whether ``value`` is of ``shape``'s outermost kind."""
    if isinstance(shape, tuple):
        return any(_fits(value, alternative) for alternative in shape)
    if shape is None:
        return value is None
    if isinstance(shape, list):
        return isinstance(value, list)
    return _KINDS["an object" if isinstance(shape, dict) else shape](value)


def _brief(value: Any) -> str:
    text = json.dumps(value)
    return text if len(text) <= 40 else text[:37] + "..."


def check_json(value: Any, shape: Any, where: str = "meta") -> None:
    """Raise :class:`ValueError` naming ``where`` unless ``value`` has ``shape``.

    A shape is one of the kind names ``"an integer"``, ``"a number"``
    (integers too), ``"a string"``, ``"a boolean"`` and ``"an object"``;
    ``None`` for null; a tuple of alternative shapes; a one-item list
    ``[item]`` for a list of such items; or a dict ``{key: shape}`` for
    an object with those entries, where a key ending in ``?`` may be
    absent.  The first alternative whose outermost kind fits decides.
    """
    if isinstance(shape, tuple):
        shape = next((alt for alt in shape if _fits(value, alt)), shape)
    if not _fits(value, shape):
        raise ValueError(f"{where} is {_brief(value)}, not {_describe(shape)}")
    if isinstance(shape, list):
        for index, item in enumerate(value):
            check_json(item, shape[0], f"{where}[{index}]")
    elif isinstance(shape, dict):
        for key, inner in shape.items():
            name = key.rstrip("?")
            if name in value:
                check_json(value[name], inner, f"{where}[{name!r}]")
            elif not key.endswith("?"):
                raise ValueError(f"{where} lacks {name!r}")


#: The arrays a reader expects: each key's shape, or None where any
#: shape is valid (see :func:`check_arrays`).
Layout = Dict[str, Optional[Tuple[int, ...]]]


def check_arrays(arrays: Mapping[str, np.ndarray], layout: Layout) -> None:
    """Raise :class:`ValueError` unless ``arrays`` has exactly the keys of
    ``layout``, each of the shape ``layout`` gives (``None``: any
    shape).  The message names every missing, unexpected and misshapen
    key."""
    missing = [key for key in layout if key not in arrays]
    unexpected = [key for key in arrays if key not in layout]
    misshapen = [
        f"{key} {np.shape(arrays[key])} (expected {shape})"
        for key, shape in layout.items()
        if shape is not None and key in arrays and np.shape(arrays[key]) != shape
    ]
    problems = [
        f"{label} {', '.join(keys)}"
        for label, keys in (
            ("missing", missing),
            ("unexpected", unexpected),
            ("misshapen", misshapen),
        )
        if keys
    ]
    if problems:
        raise ValueError(f"the arrays do not fit the run: {'; '.join(problems)}")


def check_version(meta: Mapping[str, Any], version: int, kind: str) -> None:
    """Raise :class:`ValueError` unless ``meta`` carries ``version``."""
    found = meta.get("version")
    if found != version:
        raise ValueError(
            f"unsupported {kind} version {found!r} (this build reads version {version})"
        )


def save_state(
    state: Mapping[str, np.ndarray], path: str, meta: Optional[Dict[str, Any]] = None
) -> str:
    """Write ``state`` (and ``meta`` as JSON, when given) to ``path``.

    ``.npz`` is appended when missing; returns the path written.
    """
    path = _npz_path(path)
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    entries = {} if meta is None else {"meta": np.array(json.dumps(meta))}
    np.savez(path, **entries, **state)
    return path


def load_state(path: str) -> Dict[str, np.ndarray]:
    """Every array of a file written by :func:`save_state`."""
    path = _npz_path(path)
    with open(path, "rb") as fh:
        head = fh.read(4)
        if not head:
            raise _unreadable(path, "the file is empty")
        if not head.startswith(_ZIP_MAGIC):
            raise _unreadable(path, "not an .npz (zip) archive")
        fh.seek(0)
        try:
            with np.load(fh, allow_pickle=False) as archive:
                return {key: archive[key].copy() for key in archive.files}
        except (zipfile.BadZipFile, EOFError, ValueError) as error:
            raise _unreadable(
                path, f"truncated or corrupt archive ({type(error).__name__}: {error})"
            ) from error


def read_checkpoint(
    path: str,
    *,
    kind: str,
    version: int,
    fields: Sequence[str],
    check: Optional[Callable[[Dict[str, Any], Dict[str, np.ndarray]], None]] = None,
) -> Tuple[Dict[str, Any], Dict[str, np.ndarray]]:
    """The ``(meta, arrays)`` of a checkpoint written with a ``meta``.

    Checks the file, the ``meta`` entry (a JSON object), ``version``,
    and that ``meta`` has ``fields`` — the entries only a ``kind``
    checkpoint writes, so another kind of checkpoint is named as such.
    Then ``check(meta, arrays)``, which raises :class:`ValueError` on a
    value or an array the reader cannot use, names it.
    """
    path = _npz_path(path)
    arrays = load_state(path)
    if "meta" not in arrays:
        raise _unreadable(path, f"no 'meta' entry, so not a {kind}")
    try:
        meta = json.loads(str(arrays.pop("meta")))
    except json.JSONDecodeError as error:
        raise _unreadable(path, f"'meta' is not JSON ({error})") from error
    if not isinstance(meta, dict):
        raise _unreadable(path, f"'meta' is a JSON {type(meta).__name__}, not an object")
    try:
        check_version(meta, version, kind)
    except ValueError as error:
        raise _unreadable(path, str(error)) from None
    missing = [name for name in fields if name not in meta]
    if missing:
        raise _unreadable(path, f"not a {kind}: 'meta' lacks {', '.join(map(repr, missing))}")
    if check is not None:
        try:
            check(meta, arrays)
        except ValueError as error:
            raise _unreadable(path, str(error)) from None
    return meta, arrays


def save_module(module: Module, path: str) -> None:
    """Save a module's parameters and buffers."""
    save_state(module.state_dict(), path)


def load_module(module: Module, path: str) -> Module:
    """Load a checkpoint into ``module`` in place and return it."""
    module.load_state_dict(load_state(path))
    return module
