"""Network architecture descriptions, shape inference, lowering and counting."""

from .archfile import ParseError, load, parse, save, serialize
from .counts import LayerCounts, count, layer_kind_counts
from .layers import (
    AvgPool,
    Conv,
    DatasetSpec,
    FC,
    Flatten,
    NetworkArch,
    ReLU,
    SkipConnection,
)
from .lowering import CompiledNetwork, compile_network
from .presets import (
    DATASETS,
    MODELS,
    TOY8,
    UnknownPreset,
    build_preset,
    canonical_dataset,
    get_dataset,
)
from .shapes import InvalidArch, infer_shapes, validate

__all__ = [
    "AvgPool",
    "CompiledNetwork",
    "Conv",
    "DATASETS",
    "DatasetSpec",
    "FC",
    "Flatten",
    "InvalidArch",
    "LayerCounts",
    "MODELS",
    "NetworkArch",
    "ParseError",
    "ReLU",
    "SkipConnection",
    "TOY8",
    "UnknownPreset",
    "build_preset",
    "canonical_dataset",
    "compile_network",
    "count",
    "get_dataset",
    "infer_shapes",
    "layer_kind_counts",
    "load",
    "parse",
    "save",
    "serialize",
    "validate",
]
