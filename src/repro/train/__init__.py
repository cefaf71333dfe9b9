"""Training harnesses: stage-2 classifier probes and the supervised
baseline (stage-1 streaming lives in :mod:`repro.core.framework`).
"""

from repro.train.classifier import LinearProbe, ProbeResult, evaluate_encoder
from repro.train.knn import KnnProbe, knn_predict
from repro.train.supervised import SupervisedBaseline

__all__ = [
    "LinearProbe",
    "ProbeResult",
    "evaluate_encoder",
    "KnnProbe",
    "knn_predict",
    "SupervisedBaseline",
]
