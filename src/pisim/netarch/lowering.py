"""Lowering an architecture to a DAG of masked linear units.

Activation points are the values that carry a client mask: the input
image (point 0), the output of every ReLU (points 1..K), and the
unmasked logits (point K+1). A linear unit is the affine map between
two points: the main-path ops accumulated since the previous ReLU, or
a skip connection's identity or projection. Every value entering a
ReLU or the output is the sum of its incoming units, which is what
additive sharing needs.

A unit's ops are the arch's own layers, each with its output shape, so
`count()` and the executor read a layer's fields (`weight_shape`,
`stride`, `padding`) where the arch states them.

This is the one structural walk after `validate()`: `count()` folds
over it and the two-party protocol executes it. Weights are keyed by
layer index (skip projections by ("skip", i)) so the plaintext
reference can regenerate them without going through this lowering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .layers import AvgPool, Conv, FC, Flatten, LayerSpec, NetworkArch, ReLU
from .shapes import Shape, pool_window, validate

WeightKey = int | tuple[str, int]


@dataclass(frozen=True)
class LoweredOp:
    """One non-ReLU layer of a unit and the shape it outputs.

    `layer` is the arch's own Conv, FC or Flatten, a skip's projection
    conv, or an AvgPool with its window and stride resolved for its input.
    `weight_key` names a conv's or FC's weights and is None otherwise.
    """

    layer: Conv | FC | AvgPool | Flatten
    weight_key: WeightKey | None
    out_shape: Shape


@dataclass(frozen=True)
class ActivationPoint:
    index: int
    shape: Shape

    @property
    def elems(self) -> int:
        return math.prod(self.shape)


@dataclass(frozen=True)
class LinearUnit:
    uid: str
    src_point: int
    dst_point: int
    ops: tuple[LoweredOp, ...]
    out_shape: Shape

    @property
    def out_elems(self) -> int:
        return math.prod(self.out_shape)

    @property
    def is_skip(self) -> bool:
        return self.uid.startswith("s")


@dataclass(frozen=True)
class CompiledNetwork:
    points: tuple[ActivationPoint, ...]
    units: tuple[LinearUnit, ...]

    @property
    def masked_points(self) -> tuple[ActivationPoint, ...]:
        """The input and every ReLU output: each point but the logits."""
        return self.points[:-1]

    @property
    def relu_points(self) -> tuple[ActivationPoint, ...]:
        return self.points[1:-1]

    @property
    def output_point(self) -> ActivationPoint:
        return self.points[-1]

    def units_into(self, point_index: int) -> tuple[LinearUnit, ...]:
        return tuple(u for u in self.units if u.dst_point == point_index)

    @property
    def total_relus(self) -> int:
        return sum(p.elems for p in self.relu_points)


def _op(layer: LayerSpec, idx: int, in_shape: Shape, out_shape: Shape) -> LoweredOp:
    """The op of a non-ReLU layer; validate() admits no other kinds."""
    if isinstance(layer, AvgPool):
        return LoweredOp(AvgPool(*pool_window(layer, in_shape)), None, out_shape)
    return LoweredOp(layer, idx if isinstance(layer, (Conv, FC)) else None, out_shape)


def compile_network(arch: NetworkArch) -> CompiledNetwork:
    """Validate arch and lower it to masked points and linear units."""
    shapes = validate(arch)
    ds = arch.dataset
    in_shape: Shape = (ds.channels, ds.height, ds.width)
    points = [ActivationPoint(0, in_shape)]
    point_of_layer: dict[int, int] = {-1: 0}
    units: list[LinearUnit] = []

    def close_unit(uid: str, src: int, dst: int, ops) -> None:
        units.append(LinearUnit(uid, src, dst, tuple(ops), points[dst].shape))

    ops: list[LoweredOp] = []
    for idx, (layer, shape) in enumerate(zip(arch.layers, shapes)):
        if isinstance(layer, ReLU):
            point_of_layer[idx] = len(points)
            points.append(ActivationPoint(len(points), shape))
            close_unit(f"u{len(units)}", len(points) - 2, len(points) - 1, ops)
            ops = []
        else:
            ops.append(_op(layer, idx, in_shape, shape))
        in_shape = shape
    points.append(ActivationPoint(len(points), shapes[-1]))
    close_unit(f"u{len(units)}", len(points) - 2, len(points) - 1, ops)

    # validate() guarantees each skip runs from a mask point into a ReLU.
    for i, skip in enumerate(arch.skips):
        dst = point_of_layer[skip.merge + 1]
        ops = [] if skip.conv is None else [LoweredOp(skip.conv, ("skip", i), points[dst].shape)]
        close_unit(f"s{i}", point_of_layer[skip.source], dst, ops)

    # Canonical order: by destination, main path before skips.
    units.sort(key=lambda u: (u.dst_point, u.is_skip, u.uid))
    return CompiledNetwork(points=tuple(points), units=tuple(units))
