"""Data substrate: synthetic datasets, the stream-scenario zoo
(:mod:`repro.data.scenarios` — temporal, drift, cyclic-drift, bursty,
imbalanced, corrupted), augmentations, and the stratified label-fraction
subset — the stand-in for the paper's CIFAR/SVHN/ImageNet streaming
inputs.
"""

from repro.data.augment import (
    SimCLRAugment,
    color_jitter,
    horizontal_flip,
    random_crop_resize,
    random_grayscale,
    random_horizontal_flip,
)
from repro.data.datasets import (
    DATASET_REGISTRY,
    dataset_names,
    get_dataset_config,
    make_dataset,
)
from repro.data.drift import DriftStream, growing_phases
from repro.data.resize import bilinear_resize, crop_resize_batch, grid_sample_bilinear
from repro.data.scenarios import (
    BurstyStream,
    CorruptedStream,
    CyclicDriftStream,
    ImbalancedStream,
    StreamSource,
    create_scenario,
    disjoint_phases,
)
from repro.data.splits import labeled_subset
from repro.data.stream import StreamSegment, TemporalStream, measure_stc
from repro.data.synthetic import SyntheticConfig, SyntheticImageDataset

__all__ = [
    "SyntheticConfig",
    "SyntheticImageDataset",
    "DATASET_REGISTRY",
    "dataset_names",
    "get_dataset_config",
    "make_dataset",
    "StreamSegment",
    "StreamSource",
    "DriftStream",
    "growing_phases",
    "disjoint_phases",
    "TemporalStream",
    "CyclicDriftStream",
    "BurstyStream",
    "ImbalancedStream",
    "CorruptedStream",
    "create_scenario",
    "measure_stc",
    "SimCLRAugment",
    "horizontal_flip",
    "random_horizontal_flip",
    "random_crop_resize",
    "color_jitter",
    "random_grayscale",
    "bilinear_resize",
    "crop_resize_batch",
    "grid_sample_bilinear",
    "labeled_subset",
]
