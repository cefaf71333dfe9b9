"""Checkpointing: one ``.npz`` writer and one reader for every state file.

:func:`save_module` stores a module's parameters and buffers;
:meth:`repro.session.Session.save_checkpoint` and
:meth:`repro.fleet.FleetCoordinator.save_checkpoint` store a JSON
``meta`` entry (a 0-d string array) beside their prefixed arrays.  A
checkpoint is outside bytes, so :func:`read_checkpoint` turns every
defect of the file into one :class:`ValueError` that names the path.
"""

from __future__ import annotations

import json
import os
import zipfile
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple, TypeVar

import numpy as np

from repro.nn.layers import Module

__all__ = [
    "save_state",
    "load_state",
    "save_module",
    "load_module",
    "read_checkpoint",
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
    """The entries of ``state`` under ``prefix``, with the prefix removed."""
    return {
        key[len(prefix) :]: value for key, value in state.items() if key.startswith(prefix)
    }


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
    path: str, *, kind: str, version: int, fields: Sequence[str]
) -> Tuple[Dict[str, Any], Dict[str, np.ndarray]]:
    """The ``(meta, arrays)`` of a checkpoint written with a ``meta``.

    Checks the file, the ``meta`` entry (a JSON object), ``version``,
    and that ``meta`` has ``fields`` — the entries only a ``kind``
    checkpoint writes, so another kind of checkpoint is named as such.
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
    return meta, arrays


def save_module(module: Module, path: str) -> None:
    """Save a module's parameters and buffers."""
    save_state(module.state_dict(), path)


def load_module(module: Module, path: str) -> Module:
    """Load a checkpoint into ``module`` in place and return it."""
    module.load_state_dict(load_state(path))
    return module
