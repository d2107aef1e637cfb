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
round-trips exactly. An identifier or label is one word, with no
whitespace or '#'; serialize refuses any other with UnwritableValue.
"""

from __future__ import annotations

from dataclasses import fields

from ..errors import PisimError
from .layers import AvgPool, Conv, DatasetSpec, FC, Flatten, NetworkArch, ReLU, SkipConnection


class ParseError(PisimError, ValueError):
    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


class UnwritableValue(PisimError, ValueError):
    """A name or field value that parse would not read back as written."""


# Each directive's record class, then its required and its optional
# (file key, attribute) pairs, in the order they are written. A left-out
# optional key takes its field's default, and an optional field is
# written only where it differs from that default. avgpool's window is
# required although its field has a default: 0 is the global pool,
# spelled `avgpool global`.
_DIRECTIVES = {
    "input": (DatasetSpec, {"channels": "channels", "height": "height", "width": "width",
                            "classes": "classes"}, {"dataset": "name"}),
    "conv": (Conv, {"in": "in_channels", "out": "out_channels", "kernel": "kernel"},
             {"stride": "stride", "pad": "padding", "bias": "bias"}),
    "fc": (FC, {"in": "in_features", "out": "out_features"}, {"bias": "bias"}),
    "relu": (ReLU, {}, {}),
    "avgpool": (AvgPool, {"window": "window"}, {"stride": "stride"}),
    "flatten": (Flatten, {}, {}),
    "skip": (SkipConnection, {"from": "source", "to": "merge"}, {}),
}

_BOOL = {"true": True, "false": False}

# Each field type's reader, which raises KeyError or ValueError on a bad
# value, how the error names such a value, and the type's writer.
_CELLS = {
    "int": (int, "is not an integer", str),
    "int | None": (int, "is not an integer", str),
    "bool": (lambda raw: _BOOL[raw.lower()], "must be true or false", lambda b: str(b).lower()),
    "str": (str, "", str),
}


def _record(directive: str, tokens: list[str], lineno: int, **values):
    """The record that a directive's key=value tokens describe, with any
    field given outside the tokens (a skip's conv) in values."""
    if directive not in _DIRECTIVES:
        raise ParseError(lineno, f"unknown directive {directive!r}")
    cls, required, optional = _DIRECTIVES[directive]
    if tokens and not (required or optional):
        raise ParseError(lineno, f"{directive} takes no fields")
    given: dict[str, str] = {}
    for tok in tokens:
        key, eq, raw = tok.partition("=")
        if not eq:
            raise ParseError(lineno, f"expected key=value, got {tok!r}")
        if key in given:
            raise ParseError(lineno, f"duplicate field {key!r}")
        given[key] = raw
    types = {f.name: f.type for f in fields(cls)}
    for key, attr in (required | optional).items():
        if key not in given:
            if key in required:
                raise ParseError(lineno, f"missing field {key!r}")
            continue
        read, complaint, _ = _CELLS[types[attr]]
        try:
            values[attr] = read(given.pop(key))
        except (KeyError, ValueError):
            raise ParseError(lineno, f"field {key!r} {complaint}") from None
    if given:
        raise ParseError(lineno, f"unknown fields {sorted(given)}")
    return cls(**values)


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
            continue
        if directive == "avgpool" and tokens == ["global"]:
            record = AvgPool()
        elif directive == "skip" and "conv" in tokens:
            split = tokens.index("conv")
            conv = _record("conv", tokens[split + 1 :], lineno)
            record = _record("skip", tokens[:split], lineno, conv=conv)
        else:
            record = _record(directive, tokens, lineno)
            if isinstance(record, AvgPool) and record.window < 1:
                raise ParseError(lineno, "window must be positive")
        if isinstance(record, DatasetSpec):
            dataset = record
        elif isinstance(record, SkipConnection):
            skips.append(record)
        else:
            layers.append(record)
    if dataset is None:
        raise ParseError(0, "missing input directive")
    if not layers:
        raise ParseError(0, "no layers defined")
    return NetworkArch(name, dataset, tuple(layers), tuple(skips))


def _word(key: str, value, word: str) -> str:
    """word, which writes value, if parse reads it back as one whole word:
    no whitespace, no '#' and not empty. UnwritableValue otherwise."""
    if "#" in word or word.split() != [word]:
        raise UnwritableValue(f"{key} {value!r} cannot be written: an .arch word "
                              "is not empty and holds no whitespace or '#'")
    return word


def _line(directive: str, record) -> str:
    cls, required, optional = _DIRECTIVES[directive]
    known = {f.name: f for f in fields(cls)}
    words = [directive]
    for key, attr in (required | optional).items():
        value = getattr(record, attr)
        if key in required or value != known[attr].default:
            words.append(_word(key, value, f"{key}={_CELLS[known[attr].type][2](value)}"))
    return " ".join(words)


def serialize(arch: NetworkArch) -> str:
    """The canonical text of arch, which parse reads back exactly.

    Raises UnwritableValue for a name or dataset label that parse would
    read back differently, or not at all.
    """
    lines = [f"name {_word('name', arch.name, arch.name)}", _line("input", arch.dataset)]
    for layer in arch.layers:
        is_global = isinstance(layer, AvgPool) and layer.is_global
        lines.append("avgpool global" if is_global else _line(layer.kind, layer))
    for skip in arch.skips:
        conv = "" if skip.conv is None else " " + _line("conv", skip.conv)
        lines.append(_line("skip", skip) + conv)
    return "\n".join(lines) + "\n"


def load(path) -> NetworkArch:
    from pathlib import Path

    p = Path(path)
    return parse(p.read_text(), name_hint=p.stem)
