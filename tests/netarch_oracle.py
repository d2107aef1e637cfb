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

`parse` and `serialize` are the `.arch` reader and writer as they stood
before every directive's fields were declared once in `archfile`'s
table: each directive's keys, types and defaults stated once in a branch
of `parse` and again in a branch of `serialize`. On any text the new
parser must give an equal network or the same error, and on any network
the new serializer the same text.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from pisim.netarch import (
    AvgPool,
    Conv,
    DatasetSpec,
    FC,
    Flatten,
    LayerCounts,
    NetworkArch,
    ParseError,
    ReLU,
    SkipConnection,
    validate,
)
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


_BOOL = {"true": True, "false": False}


def _fields(tokens: list[str], lineno: int) -> dict[str, str]:
    out: dict[str, str] = {}
    for tok in tokens:
        if "=" not in tok:
            raise ParseError(lineno, f"expected key=value, got {tok!r}")
        key, _, value = tok.partition("=")
        if key in out:
            raise ParseError(lineno, f"duplicate field {key!r}")
        out[key] = value
    return out


def _take_int(fields: dict[str, str], key: str, lineno: int, default=None) -> int:
    if key not in fields:
        if default is None:
            raise ParseError(lineno, f"missing field {key!r}")
        return default
    try:
        return int(fields.pop(key))
    except ValueError:
        raise ParseError(lineno, f"field {key!r} is not an integer") from None


def _take_bool(fields: dict[str, str], key: str, lineno: int, default: bool) -> bool:
    if key not in fields:
        return default
    raw = fields.pop(key).lower()
    if raw not in _BOOL:
        raise ParseError(lineno, f"field {key!r} must be true or false")
    return _BOOL[raw]


def _finish(fields: dict[str, str], lineno: int) -> None:
    if fields:
        raise ParseError(lineno, f"unknown fields {sorted(fields)}")


def _parse_conv(tokens: list[str], lineno: int) -> Conv:
    f = _fields(tokens, lineno)
    conv = Conv(
        in_channels=_take_int(f, "in", lineno),
        out_channels=_take_int(f, "out", lineno),
        kernel=_take_int(f, "kernel", lineno),
        stride=_take_int(f, "stride", lineno, default=1),
        padding=_take_int(f, "pad", lineno, default=0),
        bias=_take_bool(f, "bias", lineno, False),
    )
    _finish(f, lineno)
    return conv


def parse(text: str, name_hint: str = "unnamed") -> NetworkArch:
    name = name_hint
    dataset: DatasetSpec | None = None
    layers: list = []
    skips: list[SkipConnection] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        directive, *tokens = line.split()
        if directive == "name":
            if len(tokens) != 1:
                raise ParseError(lineno, "name takes exactly one identifier")
            name = tokens[0]
        elif directive == "input":
            f = _fields(tokens, lineno)
            label = f.pop("dataset", "custom")
            dataset = DatasetSpec(
                name=label,
                channels=_take_int(f, "channels", lineno),
                height=_take_int(f, "height", lineno),
                width=_take_int(f, "width", lineno),
                classes=_take_int(f, "classes", lineno),
            )
            _finish(f, lineno)
        elif directive == "conv":
            layers.append(_parse_conv(tokens, lineno))
        elif directive == "fc":
            f = _fields(tokens, lineno)
            layers.append(
                FC(
                    in_features=_take_int(f, "in", lineno),
                    out_features=_take_int(f, "out", lineno),
                    bias=_take_bool(f, "bias", lineno, True),
                )
            )
            _finish(f, lineno)
        elif directive == "relu":
            if tokens:
                raise ParseError(lineno, "relu takes no fields")
            layers.append(ReLU())
        elif directive == "avgpool":
            if tokens == ["global"]:
                layers.append(AvgPool(window=0))
            else:
                f = _fields(tokens, lineno)
                window = _take_int(f, "window", lineno)
                stride = _take_int(f, "stride", lineno, default=window)
                _finish(f, lineno)
                if window < 1:
                    raise ParseError(lineno, "window must be positive")
                layers.append(AvgPool(window=window, stride=stride))
        elif directive == "flatten":
            if tokens:
                raise ParseError(lineno, "flatten takes no fields")
            layers.append(Flatten())
        elif directive == "skip":
            conv = None
            if "conv" in tokens:
                split = tokens.index("conv")
                conv = _parse_conv(tokens[split + 1 :], lineno)
                tokens = tokens[:split]
            f = _fields(tokens, lineno)
            source = _take_int(f, "from", lineno)
            merge = _take_int(f, "to", lineno)
            _finish(f, lineno)
            skips.append(SkipConnection(source, merge, conv))
        else:
            raise ParseError(lineno, f"unknown directive {directive!r}")
    if dataset is None:
        raise ParseError(0, "missing input directive")
    if not layers:
        raise ParseError(0, "no layers defined")
    return NetworkArch(name, dataset, tuple(layers), tuple(skips))


def _conv_text(conv: Conv) -> str:
    parts = [f"in={conv.in_channels}", f"out={conv.out_channels}", f"kernel={conv.kernel}"]
    if conv.stride != 1:
        parts.append(f"stride={conv.stride}")
    if conv.padding != 0:
        parts.append(f"pad={conv.padding}")
    if conv.bias:
        parts.append("bias=true")
    return " ".join(parts)


def serialize(arch: NetworkArch) -> str:
    ds = arch.dataset
    lines = [
        f"name {arch.name}",
        f"input channels={ds.channels} height={ds.height} width={ds.width} "
        f"classes={ds.classes} dataset={ds.name}",
    ]
    for layer in arch.layers:
        if isinstance(layer, Conv):
            lines.append(f"conv {_conv_text(layer)}")
        elif isinstance(layer, FC):
            bias = "" if layer.bias else " bias=false"
            lines.append(f"fc in={layer.in_features} out={layer.out_features}{bias}")
        elif isinstance(layer, ReLU):
            lines.append("relu")
        elif isinstance(layer, AvgPool):
            if layer.is_global:
                lines.append("avgpool global")
            else:
                stride = layer.window if layer.stride is None else layer.stride
                lines.append(f"avgpool window={layer.window} stride={stride}")
        elif isinstance(layer, Flatten):
            lines.append("flatten")
    for skip in arch.skips:
        line = f"skip from={skip.source} to={skip.merge}"
        if skip.conv is not None:
            line += f" conv {_conv_text(skip.conv)}"
        lines.append(line)
    return "\n".join(lines) + "\n"
