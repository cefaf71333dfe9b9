"""Metrics: accuracy, learning curves, speedup and buffer diversity."""

from repro.metrics.accuracy import confusion_matrix, per_class_accuracy, top1_accuracy
from repro.metrics.curves import LearningCurve, speedup_at_accuracy
from repro.metrics.diversity import class_entropy, distinct_classes, effective_num_classes

__all__ = [
    "top1_accuracy",
    "per_class_accuracy",
    "confusion_matrix",
    "LearningCurve",
    "class_entropy",
    "effective_num_classes",
    "distinct_classes",
    "speedup_at_accuracy",
]
