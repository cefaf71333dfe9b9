"""Registry of named dataset configurations mirroring the paper's six
evaluation datasets.

Each entry maps a paper dataset to a synthetic stand-in whose class
count and relative difficulty match the role the dataset plays in the
evaluation (see DESIGN.md, substitution table).  Resolutions are scaled
for CPU training; benchmarks may override ``image_size`` uniformly.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.data.synthetic import SyntheticConfig, SyntheticImageDataset
from repro.registry import DATASETS, register_dataset

__all__ = ["DATASET_REGISTRY", "dataset_names", "get_dataset_config", "make_dataset"]


# The paper's datasets -> synthetic stand-ins.
#  - class counts match the originals (10/100/10/20/50/100);
#  - "ImageNet" subsets use a higher resolution and busier textures
#    (larger prototype grid), mirroring "high-resolution, challenging";
#  - SVHN is the easiest (digits): fewer effective degrees of freedom,
#    modelled by a smoother prototype and less jitter.
DATASET_REGISTRY: Dict[str, SyntheticConfig] = {
    "cifar10": SyntheticConfig(
        name="cifar10",
        num_classes=10,
        image_size=12,
        prototype_grid=5,
        shift_fraction=0.15,
        color_jitter=0.20,
        noise_std=0.05,
        content_seed=101,
    ),
    "cifar100": SyntheticConfig(
        name="cifar100",
        num_classes=100,
        image_size=12,
        prototype_grid=6,
        shift_fraction=0.15,
        color_jitter=0.20,
        noise_std=0.05,
        content_seed=102,
    ),
    "svhn": SyntheticConfig(
        name="svhn",
        num_classes=10,
        image_size=12,
        prototype_grid=4,
        shift_fraction=0.10,
        color_jitter=0.12,
        noise_std=0.04,
        content_seed=103,
    ),
    "imagenet20": SyntheticConfig(
        name="imagenet20",
        num_classes=20,
        image_size=14,
        prototype_grid=6,
        shift_fraction=0.12,
        color_jitter=0.18,
        noise_std=0.05,
        content_seed=104,
    ),
    "imagenet50": SyntheticConfig(
        name="imagenet50",
        num_classes=50,
        image_size=14,
        prototype_grid=6,
        shift_fraction=0.12,
        color_jitter=0.18,
        noise_std=0.05,
        content_seed=105,
    ),
    "imagenet100": SyntheticConfig(
        name="imagenet100",
        num_classes=100,
        image_size=14,
        prototype_grid=6,
        shift_fraction=0.12,
        color_jitter=0.18,
        noise_std=0.05,
        content_seed=106,
    ),
}


def _synthetic_factory(name: str):
    """A registry factory instantiating one synthetic stand-in recipe."""

    def build(image_size: Optional[int] = None) -> SyntheticImageDataset:
        return SyntheticImageDataset(get_dataset_config(name, image_size))

    return build


for _name, _cfg in DATASET_REGISTRY.items():
    register_dataset(_name, num_classes=_cfg.num_classes)(_synthetic_factory(_name))
del _name, _cfg


def dataset_names() -> List[str]:
    """All registered dataset names (built-ins plus plugins)."""
    return DATASETS.names()


def get_dataset_config(name: str, image_size: Optional[int] = None) -> SyntheticConfig:
    """Look up a built-in synthetic config, optionally overriding the
    resolution.  Plugin datasets registered via
    :func:`repro.registry.register_dataset` have no SyntheticConfig;
    use :func:`make_dataset` for those."""
    if name not in DATASET_REGISTRY:
        raise KeyError(
            f"unknown dataset {name!r}; available: {', '.join(sorted(DATASET_REGISTRY))}"
        )
    cfg = DATASET_REGISTRY[name]
    if image_size is not None:
        cfg = cfg.with_image_size(image_size)
    return cfg


def make_dataset(name: str, image_size: Optional[int] = None) -> Any:
    """Instantiate a registered dataset (built-in or plugin) by name.

    Built-ins return :class:`SyntheticImageDataset`; plugins return
    whatever their registered factory builds.

    An *explicit* ``image_size`` is a requirement, not an offer: a
    plugin factory that does not declare the parameter raises
    ``TypeError`` rather than silently building at native resolution.
    """
    if image_size is None:
        # omit the key entirely so factories keep their own defaults
        return DATASETS.create(name)
    return DATASETS.create_with_required(name, ("image_size",), image_size=image_size)
