"""References for the lowering's equivalence tests.

`count` is `netarch.count()` as it stood before it became a fold over
`compile_network`: its own walk over the layers and skips, with the
segment rule for units and masked elements written out by hand.
`count()` must agree with it field for field on every valid network.

`PrimitiveOp` and `primitive_ops` are the op encoding the lowering used
before its ops became the layers themselves: every layer restated under
its own field names, with each weight shape written out. `gen_weights`
is the weight draw as it stood then, with the same shapes spelled out a
second time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from pisim.netarch import AvgPool, Conv, FC, LayerCounts, NetworkArch, ReLU, validate
from pisim.netarch.shapes import Shape, conv_out, pool_window


def _conv(conv: Conv, out: Shape) -> tuple[int, int]:
    """Params and FLOPs of a conv whose output has shape out."""
    macs = conv.in_channels * conv.kernel**2
    return conv.out_channels * (macs + int(conv.bias)), math.prod(out) * macs


def count(arch: NetworkArch) -> LayerCounts:
    shapes = validate(arch)
    params = conv_flops = fc_flops = relus = 0
    n_units = len(arch.skips)
    for layer, shape in zip(arch.layers, shapes):
        if isinstance(layer, Conv):
            p, f = _conv(layer, shape)
            params += p
            conv_flops += f
            n_units += 1
        elif isinstance(layer, FC):
            params += layer.out_features * (layer.in_features + int(layer.bias))
            fc_flops += layer.in_features * layer.out_features
            n_units += 1
        elif isinstance(layer, ReLU):
            relus += math.prod(shape)
    ds = arch.dataset
    input_shape = (ds.channels, ds.height, ds.width)
    mask_out = relus + math.prod(shapes[-1])
    for i, skip in enumerate(arch.skips):
        mask_out += math.prod(shapes[skip.merge])
        if skip.conv is not None:
            src = input_shape if skip.source == -1 else shapes[skip.source]
            p, f = _conv(skip.conv, conv_out(skip.conv, src, f"skip {i}: conv"))
            params += p
            conv_flops += f
    return LayerCounts(
        params=params,
        flops=conv_flops + fc_flops,
        relus=relus,
        conv_flops=conv_flops,
        fc_flops=fc_flops,
        n_units=n_units,
        mask_in_elems=ds.image_elems + relus,
        mask_out_elems=mask_out,
    )


@dataclass(frozen=True)
class PrimitiveOp:
    kind: str  # conv | fc | pool | flatten
    out_shape: Shape
    weight_key: int | tuple[str, int] | None = None
    weight_shape: tuple | None = None
    has_bias: bool = False
    stride: int = 1
    pad: int = 0
    window: int = 0


def _conv_op(layer: Conv, key, out_shape: Shape) -> PrimitiveOp:
    return PrimitiveOp(
        kind="conv",
        out_shape=out_shape,
        weight_key=key,
        weight_shape=(layer.out_channels, layer.in_channels, layer.kernel, layer.kernel),
        has_bias=layer.bias,
        stride=layer.stride,
        pad=layer.padding,
    )


def _op(layer, idx: int, in_shape: Shape, out_shape: Shape) -> PrimitiveOp:
    if isinstance(layer, Conv):
        return _conv_op(layer, idx, out_shape)
    if isinstance(layer, FC):
        return PrimitiveOp(
            kind="fc",
            out_shape=out_shape,
            weight_key=idx,
            weight_shape=(layer.out_features, layer.in_features),
            has_bias=layer.bias,
        )
    if isinstance(layer, AvgPool):
        window, stride = pool_window(layer, in_shape)
        return PrimitiveOp(kind="pool", out_shape=out_shape, window=window, stride=stride)
    return PrimitiveOp(kind="flatten", out_shape=out_shape)


def primitive_ops(arch: NetworkArch) -> dict[str, tuple[PrimitiveOp, ...]]:
    """Each linear unit's ops in the old encoding, by unit id: u0, u1, ...
    along the main path, then s{i} for skip i."""
    shapes = validate(arch)
    ds = arch.dataset
    in_shape: Shape = (ds.channels, ds.height, ds.width)
    units: dict[str, tuple[PrimitiveOp, ...]] = {}
    ops: list[PrimitiveOp] = []
    for idx, (layer, shape) in enumerate(zip(arch.layers, shapes)):
        if isinstance(layer, ReLU):
            units[f"u{len(units)}"] = tuple(ops)
            ops = []
        else:
            ops.append(_op(layer, idx, in_shape, shape))
        in_shape = shape
    units[f"u{len(units)}"] = tuple(ops)
    for i, skip in enumerate(arch.skips):
        out_shape = shapes[skip.merge + 1]
        units[f"s{i}"] = () if skip.conv is None else (_conv_op(skip.conv, ("skip", i), out_shape),)
    return units


def gen_weights(arch: NetworkArch, seed: int):
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
    weights = {}

    def draw(key, w_shape: tuple, out_dim: int, has_bias: bool) -> None:
        w = rng.integers(-3, 4, size=w_shape, dtype=np.int64)
        if has_bias:
            b = rng.integers(-3, 4, size=(out_dim,), dtype=np.int64)
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
