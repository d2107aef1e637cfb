"""Lowering an architecture to a DAG of masked linear units.

Activation points are the values that carry a client mask: the input
image (point 0), the output of every ReLU (points 1..K), and the
unmasked logits (point K+1). A linear unit is the affine map between
two points: the main-path ops accumulated since the previous ReLU, or
a skip connection's identity or projection. Every value entering a
ReLU or the output is the sum of its incoming units, which is what
additive sharing needs.

Weights are keyed by layer index (skip projections by ("skip", i)) so
the plaintext reference can regenerate them without going through this
lowering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..netarch import (
    AvgPool,
    Conv,
    FC,
    Flatten,
    InvalidArch,
    NetworkArch,
    ReLU,
    validate,
)
from ..netarch.shapes import pool_window

WeightKey = int | tuple[str, int]


@dataclass(frozen=True)
class PrimitiveOp:
    kind: str  # conv | fc | pool | flatten
    weight_key: WeightKey | None = None
    weight_shape: tuple | None = None
    has_bias: bool = False
    stride: int = 1
    pad: int = 0
    window: int = 0


@dataclass(frozen=True)
class ActivationPoint:
    index: int
    shape: tuple
    masked: bool  # input and ReLU points carry a client mask

    @property
    def elems(self) -> int:
        return math.prod(self.shape)


@dataclass(frozen=True)
class LinearUnit:
    uid: str
    src_point: int
    dst_point: int
    ops: tuple[PrimitiveOp, ...]
    in_shape: tuple
    out_shape: tuple

    @property
    def out_elems(self) -> int:
        return math.prod(self.out_shape)


@dataclass(frozen=True)
class CompiledNetwork:
    arch: NetworkArch
    points: tuple[ActivationPoint, ...]
    units: tuple[LinearUnit, ...]

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


def _conv_op(layer: Conv, key: WeightKey) -> PrimitiveOp:
    return PrimitiveOp(
        kind="conv",
        weight_key=key,
        weight_shape=(layer.out_channels, layer.in_channels, layer.kernel, layer.kernel),
        has_bias=layer.bias,
        stride=layer.stride,
        pad=layer.padding,
    )


def compile_network(arch: NetworkArch) -> CompiledNetwork:
    shapes = validate(arch)
    input_shape = (arch.dataset.channels, arch.dataset.height, arch.dataset.width)

    points = [ActivationPoint(0, input_shape, masked=True)]
    point_of_layer: dict[int, int] = {-1: 0}
    units: list[LinearUnit] = []
    cur_src = 0
    cur_ops: list[PrimitiveOp] = []
    cur_in = input_shape

    def close_unit(dst: int, out_shape: tuple) -> None:
        nonlocal cur_src, cur_ops, cur_in
        units.append(
            LinearUnit(
                uid=f"u{len(units)}",
                src_point=cur_src,
                dst_point=dst,
                ops=tuple(cur_ops),
                in_shape=cur_in,
                out_shape=out_shape,
            )
        )
        cur_src = dst
        cur_ops = []
        cur_in = out_shape

    in_shapes = [input_shape, *shapes]  # layer idx reads in_shapes[idx]
    for idx, layer in enumerate(arch.layers):
        shape = shapes[idx]
        if isinstance(layer, ReLU):
            point_idx = len(points)
            points.append(ActivationPoint(point_idx, shape, masked=True))
            point_of_layer[idx] = point_idx
            close_unit(point_idx, shape)
        elif isinstance(layer, Conv):
            cur_ops.append(_conv_op(layer, idx))
        elif isinstance(layer, FC):
            cur_ops.append(
                PrimitiveOp(
                    kind="fc",
                    weight_key=idx,
                    weight_shape=(layer.out_features, layer.in_features),
                    has_bias=layer.bias,
                )
            )
        elif isinstance(layer, AvgPool):
            window, stride = pool_window(layer, in_shapes[idx])
            cur_ops.append(PrimitiveOp(kind="pool", window=window, stride=stride))
        elif isinstance(layer, Flatten):
            cur_ops.append(PrimitiveOp(kind="flatten"))

    out_idx = len(points)
    points.append(ActivationPoint(out_idx, shapes[-1], masked=False))
    close_unit(out_idx, shapes[-1])

    main_units = list(units)
    for i, skip in enumerate(arch.skips):
        if skip.source not in point_of_layer:
            raise InvalidArch(
                f"skip {i}: source layer {skip.source} is not a mask point "
                "(must be -1 or a relu)"
            )
        merge_next = skip.merge + 1
        if merge_next >= len(arch.layers) or not isinstance(
            arch.layers[merge_next], ReLU
        ):
            raise InvalidArch(
                f"skip {i}: merge layer {skip.merge} must feed directly into a relu"
            )
        src = point_of_layer[skip.source]
        dst = point_of_layer[merge_next]
        src_shape = points[src].shape
        ops = () if skip.conv is None else (_conv_op(skip.conv, ("skip", i)),)
        main_units.append(
            LinearUnit(
                uid=f"s{i}",
                src_point=src,
                dst_point=dst,
                ops=ops,
                in_shape=src_shape,
                out_shape=points[dst].shape,
            )
        )

    # Canonical order: by destination, main path before skips.
    main_units.sort(key=lambda u: (u.dst_point, u.uid.startswith("s"), u.uid))
    return CompiledNetwork(arch=arch, points=tuple(points), units=tuple(main_units))


def gen_weights(arch: NetworkArch, seed: int, low: int = -3, high: int = 3):
    """Small random integer weights, keyed by layer index.

    The range keeps exact activations comfortably inside the signed
    field window for shallow test networks.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
    weights: dict[WeightKey, tuple[np.ndarray, np.ndarray]] = {}

    def draw(key: WeightKey, w_shape: tuple, out_dim: int, has_bias: bool) -> None:
        w = rng.integers(low, high + 1, size=w_shape, dtype=np.int64)
        if has_bias:
            b = rng.integers(low, high + 1, size=(out_dim,), dtype=np.int64)
        else:
            b = np.zeros(out_dim, dtype=np.int64)
        weights[key] = (w, b)

    for idx, layer in enumerate(arch.layers):
        if isinstance(layer, Conv):
            shape = (layer.out_channels, layer.in_channels, layer.kernel, layer.kernel)
            draw(idx, shape, layer.out_channels, layer.bias)
        elif isinstance(layer, FC):
            draw(idx, (layer.out_features, layer.in_features), layer.out_features, layer.bias)
    for i, skip in enumerate(arch.skips):
        if skip.conv is not None:
            conv = skip.conv
            shape = (conv.out_channels, conv.in_channels, conv.kernel, conv.kernel)
            draw(("skip", i), shape, conv.out_channels, conv.bias)
    return weights
