"""The console table ``--metrics`` prints.

:func:`render_console` is a pure function of a :class:`MetricsRegistry`;
the caller decides where the text goes.  The machine-readable form of
the same series is :meth:`MetricsRegistry.snapshot`.
"""

from __future__ import annotations

from typing import Dict

from repro.obs.metrics import Histogram, MetricsRegistry
from repro.utils.tables import format_table

__all__ = ["render_console"]


def _format_labels(labels: Dict[str, str]) -> str:
    return ",".join(f"{k}={v}" for k, v in sorted(labels.items()))


def _format_value(value: float) -> str:
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.6g}"


def render_console(registry: MetricsRegistry) -> str:
    """Aligned plain-text table, one row per series; histograms show
    count/mean/p50/p99/max so latency knees are visible at a glance."""
    rows = []
    for kind, name, labels, instrument in registry.series():
        if isinstance(instrument, Histogram):
            value = (
                f"count={instrument.count} mean={instrument.mean:.6g} "
                f"p50={instrument.percentile(50):.6g} "
                f"p99={instrument.percentile(99):.6g} "
                f"max={instrument.max:.6g}"
            )
        else:
            value = _format_value(instrument.value)
        rows.append([name, _format_labels(labels), kind, value])
    if not rows:
        return "(no metrics recorded)"
    return format_table(["metric", "labels", "kind", "value"], rows)
