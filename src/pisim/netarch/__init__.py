"""Network architecture descriptions, shape inference, and counting."""

from .archfile import ParseError, load, parse, save, serialize
from .counts import LayerCounts, count, layer_kind_counts
from .layers import (
    AvgPool,
    Conv,
    DatasetSpec,
    FC,
    Flatten,
    LayerSpec,
    NetworkArch,
    ReLU,
    SkipConnection,
)
from .presets import (
    CIFAR100,
    DATASETS,
    IMAGENET,
    MODELS,
    TINYIMAGENET,
    TOY8,
    UnknownPreset,
    build_preset,
    canonical_dataset,
    get_dataset,
    scale_to_input,
)
from .shapes import IncompatibleResolution, InvalidArch, infer_shapes, validate

__all__ = [
    "AvgPool",
    "CIFAR100",
    "Conv",
    "DATASETS",
    "DatasetSpec",
    "FC",
    "Flatten",
    "IMAGENET",
    "IncompatibleResolution",
    "InvalidArch",
    "LayerCounts",
    "LayerSpec",
    "MODELS",
    "NetworkArch",
    "ParseError",
    "ReLU",
    "SkipConnection",
    "TINYIMAGENET",
    "TOY8",
    "UnknownPreset",
    "build_preset",
    "canonical_dataset",
    "count",
    "get_dataset",
    "infer_shapes",
    "layer_kind_counts",
    "load",
    "parse",
    "save",
    "scale_to_input",
    "serialize",
    "validate",
]
