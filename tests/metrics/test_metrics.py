"""Tests for accuracy metrics and learning curves."""

import numpy as np
import pytest

from repro.metrics.accuracy import per_class_accuracy, top1_accuracy
from repro.metrics.curves import LearningCurve, speedup_at_accuracy


class TestAccuracy:
    def test_perfect(self):
        assert top1_accuracy(np.array([0, 1, 2]), np.array([0, 1, 2])) == 1.0

    def test_partial(self):
        assert top1_accuracy(np.array([0, 1, 0]), np.array([0, 1, 2])) == pytest.approx(2 / 3)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            top1_accuracy(np.array([]), np.array([]))

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            top1_accuracy(np.array([0, 1]), np.array([0]))

    def test_per_class(self):
        preds = np.array([0, 0, 1, 1])
        labels = np.array([0, 1, 1, 1])
        out = per_class_accuracy(preds, labels, 3)
        assert out[0] == 1.0
        assert out[1] == pytest.approx(2 / 3)
        assert np.isnan(out[2])


class TestLearningCurve:
    def test_add_and_final(self):
        curve = LearningCurve("m")
        curve.add(100, 0.4)
        curve.add(200, 0.6)
        assert len(curve) == 2
        assert curve.final_accuracy == 0.6
        assert curve.best_accuracy == 0.6
        assert curve.as_rows() == [(100, 0.4), (200, 0.6)]

    def test_non_monotone_seen_raises(self):
        curve = LearningCurve("m")
        curve.add(100, 0.4)
        with pytest.raises(ValueError):
            curve.add(50, 0.5)

    def test_empty_final_raises(self):
        with pytest.raises(ValueError):
            _ = LearningCurve("m").final_accuracy

    def test_inputs_to_reach_exact(self):
        curve = LearningCurve("m")
        curve.add(100, 0.3)
        curve.add(200, 0.5)
        curve.add(300, 0.7)
        assert curve.inputs_to_reach(0.5) == 200

    def test_inputs_to_reach_interpolated(self):
        curve = LearningCurve("m")
        curve.add(100, 0.2)
        curve.add(200, 0.6)
        assert curve.inputs_to_reach(0.4) == 150

    def test_inputs_to_reach_first_point(self):
        curve = LearningCurve("m")
        curve.add(100, 0.9)
        assert curve.inputs_to_reach(0.5) == 100

    def test_inputs_to_reach_never(self):
        curve = LearningCurve("m")
        curve.add(100, 0.2)
        assert curve.inputs_to_reach(0.9) is None

    def test_non_monotone_accuracy_uses_first_crossing(self):
        curve = LearningCurve("m")
        curve.add(100, 0.2)
        curve.add(200, 0.6)
        curve.add(300, 0.5)
        assert curve.inputs_to_reach(0.55) < 200


class TestSpeedup:
    def test_paper_style_speedup(self):
        """Fast reaches 0.76 at 3.74M; slow at 9.98M -> 2.67x."""
        fast = LearningCurve("cs")
        slow = LearningCurve("random")
        fast.add(1_000_000, 0.5)
        fast.add(3_740_000, 0.761)
        slow.add(1_000_000, 0.3)
        slow.add(9_980_000, 0.761)
        speedup = speedup_at_accuracy(fast, slow, 0.76)
        assert speedup == pytest.approx(2.67, rel=0.02)

    def test_unreachable_returns_none(self):
        fast = LearningCurve("a")
        slow = LearningCurve("b")
        fast.add(10, 0.9)
        slow.add(10, 0.2)
        assert speedup_at_accuracy(fast, slow, 0.8) is None

