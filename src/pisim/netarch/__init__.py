"""Network architecture descriptions, shape inference, lowering and counting."""

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
from .lowering import (
    ActivationPoint,
    CompiledNetwork,
    LinearUnit,
    PrimitiveOp,
    compile_network,
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
)
from .shapes import IncompatibleResolution, InvalidArch, infer_shapes, validate

__all__ = [
    "ActivationPoint",
    "AvgPool",
    "CIFAR100",
    "CompiledNetwork",
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
    "LinearUnit",
    "MODELS",
    "NetworkArch",
    "ParseError",
    "PrimitiveOp",
    "ReLU",
    "SkipConnection",
    "TINYIMAGENET",
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
