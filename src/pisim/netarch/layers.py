"""Architecture description types.

A network is an ordered list of layers plus optional skip connections.
Layers carry only what shape inference and counting need; weights live
with the protocol executors, not here.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class DatasetSpec:
    """Input geometry and label count for a dataset."""

    name: str
    channels: int
    height: int
    width: int
    classes: int

    @property
    def image_elems(self) -> int:
        return self.channels * self.height * self.width


@dataclass(frozen=True)
class Conv:
    in_channels: int
    out_channels: int
    kernel: int
    stride: int = 1
    padding: int = 0
    bias: bool = False

    kind = "conv"

    @property
    def weight_shape(self) -> tuple[int, int, int, int]:
        return (self.out_channels, self.in_channels, self.kernel, self.kernel)


@dataclass(frozen=True)
class FC:
    in_features: int
    out_features: int
    bias: bool = True

    kind = "fc"

    @property
    def weight_shape(self) -> tuple[int, int]:
        return (self.out_features, self.in_features)


@dataclass(frozen=True)
class ReLU:
    kind = "relu"


@dataclass(frozen=True)
class AvgPool:
    """Average pooling; window 0 pools over the whole spatial extent."""

    window: int = 0
    stride: int | None = None

    kind = "avgpool"

    @property
    def is_global(self) -> bool:
        return self.window == 0


@dataclass(frozen=True)
class Flatten:
    kind = "flatten"


LayerSpec = Conv | FC | ReLU | AvgPool | Flatten


@dataclass(frozen=True)
class SkipConnection:
    """Adds the output of layer `source` to the output of layer `merge`.

    Indices refer to positions in NetworkArch.layers; source may be -1
    for the network input. An optional 1x1 Conv reshapes the skipped
    value (projection shortcut); None means identity.
    """

    source: int
    merge: int
    conv: Conv | None = None


@dataclass(frozen=True)
class NetworkArch:
    name: str
    dataset: DatasetSpec
    layers: tuple[LayerSpec, ...]
    skips: tuple[SkipConnection, ...] = field(default_factory=tuple)
