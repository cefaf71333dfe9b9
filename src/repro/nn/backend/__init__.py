"""Pluggable array-backend execution layer (see DESIGN.md §8).

One :class:`~repro.nn.backend.base.ArrayBackend` strategy object
decides how the nn stack's unfolds, GEMMs and inference chain execute —
precision, scratch-buffer reuse, and inference fusion — while storage
stays ``numpy.ndarray`` everywhere.  Built-ins:

* ``numpy`` — the reference semantics (aliases ``np``, ``reference``);
* ``fused`` — conv→BN→ReLU fusion, arena buffer reuse, float32
  gradient-free forwards (alias ``fast``).

Select with the ``REPRO_BACKEND`` environment variable, the CLI's
``--backend`` flag, a config's ``backend`` field, or programmatically::

    from repro.nn.backend import use_backend

    with use_backend("fused"):
        scores = scorer.score(images)

New backends register through :func:`repro.registry.register_backend`
and plug into every surface (CLI, Session, sweeps) by name.
"""

from repro.nn.backend.base import (
    ArrayBackend,
    default_backend_name,
    get_backend,
    set_backend,
    use_backend,
)
from repro.nn.backend.fused import FusedBackend
from repro.nn.backend.numpy_backend import NumpyBackend

__all__ = [
    "ArrayBackend",
    "NumpyBackend",
    "FusedBackend",
    "get_backend",
    "set_backend",
    "use_backend",
    "default_backend_name",
]
