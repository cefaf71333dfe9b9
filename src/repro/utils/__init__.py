"""Shared utilities: seeded RNG management and table rendering."""

from repro.utils.rng import RngRegistry, new_rng
from repro.utils.tables import format_table

__all__ = [
    "RngRegistry",
    "new_rng",
    "format_table",
]
