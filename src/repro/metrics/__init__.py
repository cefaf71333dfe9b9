"""Metrics: accuracy, learning curves and speedup."""

from repro.metrics.accuracy import per_class_accuracy, top1_accuracy
from repro.metrics.curves import LearningCurve, speedup_at_accuracy

__all__ = [
    "top1_accuracy",
    "per_class_accuracy",
    "LearningCurve",
    "speedup_at_accuracy",
]
