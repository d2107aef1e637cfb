"""Built-in dataset and model presets.

The three models mirror the networks used for the measured cost table:
CIFAR-style stems (3x3 stride-1 first conv, no early downsampling),
max-pools replaced by average pools, and a global average pool before
the classifier in the ResNets. ResNet-18 uses projection (1x1 conv)
shortcuts at stage transitions; ResNet-32 uses parameter-free padded
shortcuts there, which carry no params, FLOPs, or ReLUs and are
omitted from the dataflow graph.
"""

from __future__ import annotations

from functools import partial

from ..errors import PisimError
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

CIFAR100 = DatasetSpec(name="cifar100", channels=3, height=32, width=32, classes=100)
TINYIMAGENET = DatasetSpec(name="tinyimagenet", channels=3, height=64, width=64, classes=200)
IMAGENET = DatasetSpec(name="imagenet", channels=3, height=224, width=224, classes=1000)
TOY8 = DatasetSpec(name="toy8", channels=1, height=8, width=8, classes=4)

DATASETS: dict[str, DatasetSpec] = {
    "cifar100": CIFAR100,
    "c100": CIFAR100,
    "tinyimagenet": TINYIMAGENET,
    "tiny": TINYIMAGENET,
    "imagenet": IMAGENET,
    "toy8": TOY8,
}


class UnknownPreset(PisimError, KeyError):
    """No preset has this model or dataset name."""

    __str__ = Exception.__str__  # the message itself, without KeyError's repr quotes


def get_dataset(name: str) -> DatasetSpec:
    try:
        return DATASETS[name.lower()]
    except KeyError:
        raise UnknownPreset(
            f"unknown dataset {name!r}; known: {sorted(set(DATASETS))}"
        ) from None


def canonical_dataset(name: str) -> str:
    """Resolve aliases like c100 to the full dataset name; pass through
    names the registry does not know."""
    try:
        return get_dataset(name).name
    except UnknownPreset:
        return name


def _resnet(
    name: str,
    stage_channels: tuple[int, ...],
    blocks_per_stage: int,
    project: bool,
    dataset: DatasetSpec,
) -> NetworkArch:
    """The one ResNet builder: a stem conv as wide as the first stage,
    stages of two-conv basic blocks (each stage after the first halves the
    resolution in its first block), a global average pool and one FC.

    Blocks that keep their shape get an identity skip; `project` gives the
    shape-changing ones 1x1-conv shortcuts (else they get no modeled skip).
    """
    inc = stage_channels[0]
    layers: list = [Conv(dataset.channels, inc, kernel=3, stride=1, padding=1), ReLU()]
    skips: list[SkipConnection] = []
    for stage, ch in enumerate(stage_channels):
        for block in range(blocks_per_stage):
            stride = 2 if stage > 0 and block == 0 else 1
            src = len(layers) - 1
            layers.append(Conv(inc, ch, kernel=3, stride=stride, padding=1))
            layers.append(ReLU())
            layers.append(Conv(ch, ch, kernel=3, stride=1, padding=1))
            merge = len(layers) - 1
            if inc == ch and stride == 1:
                skips.append(SkipConnection(src, merge, conv=None))
            elif project:
                skips.append(
                    SkipConnection(
                        src, merge, conv=Conv(inc, ch, kernel=1, stride=stride)
                    )
                )
            layers.append(ReLU())
            inc = ch
    layers += [AvgPool(window=0), Flatten(), FC(inc, dataset.classes)]
    return NetworkArch(name, dataset, tuple(layers), tuple(skips))


_VGG_CFG = (64, 64, "P", 128, 128, "P", 256, 256, 256, "P", 512, 512, 512, "P", 512, 512, 512, "P")


def _vgg16(dataset: DatasetSpec) -> NetworkArch:
    layers: list = []
    inc = dataset.channels
    spatial = dataset.height
    for v in _VGG_CFG:
        if v == "P":
            layers.append(AvgPool(window=2, stride=2))
            spatial //= 2
        else:
            layers.append(Conv(inc, v, kernel=3, stride=1, padding=1, bias=True))
            layers.append(ReLU())
            inc = v
    flat = 512 * spatial * spatial
    layers += [
        Flatten(),
        FC(flat, 4096),
        ReLU(),
        FC(4096, 4096),
        ReLU(),
        FC(4096, dataset.classes),
    ]
    return NetworkArch("vgg16", dataset, tuple(layers), ())


def _toy_cnn(dataset: DatasetSpec) -> NetworkArch:
    layers = (
        Conv(dataset.channels, 2, kernel=3, stride=1, padding=1),
        ReLU(),
        Flatten(),
        FC(2 * dataset.height * dataset.width, dataset.classes),
    )
    return NetworkArch("toy_cnn", dataset, layers, ())


_BUILDERS = {
    "resnet32": partial(_resnet, "resnet32", (16, 32, 64), 5, False),
    "resnet18": partial(_resnet, "resnet18", (64, 128, 256, 512), 2, True),
    "vgg16": _vgg16,
    "toy_cnn": _toy_cnn,
}

MODELS = tuple(sorted(_BUILDERS))


def build_preset(model: str, dataset: DatasetSpec | str) -> NetworkArch:
    """Construct a preset architecture at the given dataset's geometry."""
    key = model.lower()
    if key not in _BUILDERS:
        raise UnknownPreset(f"unknown model {key!r}; known: {sorted(_BUILDERS)}")
    ds = get_dataset(dataset) if isinstance(dataset, str) else dataset
    return _BUILDERS[key](ds)

