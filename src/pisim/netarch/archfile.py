"""Line-oriented text format for architecture descriptions.

Grammar (one directive per line, '#' starts a comment):

    name <identifier>
    input channels=C height=H width=W classes=K [dataset=<label>]
    conv in=CI out=CO kernel=K [stride=S] [pad=P] [bias=true|false]
    fc in=I out=O [bias=true|false]
    relu
    avgpool global | avgpool window=W [stride=S]
    flatten
    skip from=I to=J [conv in=CI out=CO kernel=K [stride=S] [pad=P] [bias=true|false]]

`skip` indices refer to 0-based positions among the layer directives
(conv/fc/relu/avgpool/flatten); from=-1 taps the network input. The
serializer emits this canonical form, and parse(serialize(arch))
round-trips exactly.
"""

from __future__ import annotations

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


class ParseError(PisimError, ValueError):
    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


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


def load(path) -> NetworkArch:
    from pathlib import Path

    p = Path(path)
    return parse(p.read_text(), name_hint=p.stem)


def save(arch: NetworkArch, path) -> None:
    from pathlib import Path

    Path(path).write_text(serialize(arch))
