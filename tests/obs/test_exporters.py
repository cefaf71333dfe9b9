"""The console table ``--metrics`` prints."""

from repro.obs.exporters import render_console
from repro.obs.metrics import MetricsRegistry


def loaded_registry():
    registry = MetricsRegistry()
    registry.counter("fleet.rounds").inc(3)
    registry.counter("pool.jobs", worker=0).inc(2)
    registry.counter("pool.jobs", worker=1).inc(4)
    registry.gauge("fleet.pending_depth").set(1.5)
    hist = registry.histogram("serve.latency_ms")
    for value in (0.5, 2.0, 8.0):
        hist.observe(value)
    return registry


class TestConsole:
    def test_one_row_per_series(self):
        text = render_console(loaded_registry())
        assert "fleet.rounds" in text
        assert "worker=0" in text and "worker=1" in text
        assert "p99=" in text and "count=3" in text  # histogram summary
        assert "1.5" in text  # gauge value

    def test_empty_registry(self):
        text = render_console(MetricsRegistry())
        assert "no metrics" in text
