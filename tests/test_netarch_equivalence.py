"""The lowering and what reads it, and the `.arch` reader and writer,
against their old forms.

`tests/netarch_oracle.py` keeps the walk `count()` used before it read
`compile_network`, the op encoding the lowering used before its ops
became the layers themselves, and the weight draw that spelled out each
weight shape again. Every count field, every op field and every weight
array must agree, on the presets and on random valid networks with
identity and projection skips.

It also keeps `parse` and `serialize` as they stood before `archfile`
declared every directive's fields in one table. On mutated texts of the
shipped archs both parsers give an equal network or the same error, and
both serializers give the same text on the presets and on random
networks.
"""

import itertools
from dataclasses import astuple
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import netarch_oracle
from pisim.netarch import (
    AvgPool,
    Conv,
    DATASETS,
    DatasetSpec,
    FC,
    Flatten,
    InvalidArch,
    MODELS,
    NetworkArch,
    ParseError,
    ReLU,
    SkipConnection,
    build_preset,
    compile_network,
    count,
    parse,
    serialize,
    validate,
)
from pisim.protocol import gen_weights


def _valid_presets():
    pairs = []
    datasets = sorted({d.name for d in DATASETS.values()})
    for model, dataset in itertools.product(MODELS, datasets):
        try:
            validate(build_preset(model, dataset))
        except InvalidArch:
            continue
        pairs.append((model, dataset))
    return pairs


@pytest.mark.parametrize("model,dataset", _valid_presets())
def test_count_matches_reference_on_presets(model, dataset):
    arch = build_preset(model, dataset)
    assert astuple(count(arch)) == astuple(netarch_oracle.count(arch))


def _old_encoding(op) -> netarch_oracle.PrimitiveOp:
    """A lowered op restated in the old encoding's fields."""
    layer, keyed = op.layer, {"out_shape": op.out_shape, "weight_key": op.weight_key}
    if isinstance(layer, Conv):
        return netarch_oracle.PrimitiveOp(
            "conv", weight_shape=layer.weight_shape, has_bias=layer.bias,
            stride=layer.stride, pad=layer.padding, **keyed)
    if isinstance(layer, FC):
        return netarch_oracle.PrimitiveOp(
            "fc", weight_shape=layer.weight_shape, has_bias=layer.bias, **keyed)
    if isinstance(layer, AvgPool):
        return netarch_oracle.PrimitiveOp(
            "pool", window=layer.window, stride=layer.stride, **keyed)
    assert isinstance(layer, Flatten)
    return netarch_oracle.PrimitiveOp("flatten", **keyed)


def _assert_ops_match_reference(arch):
    units = compile_network(arch).units
    lowered = {unit.uid: tuple(map(_old_encoding, unit.ops)) for unit in units}
    assert lowered == netarch_oracle.primitive_ops(arch)


def _assert_same_weights(new, old):
    assert list(new) == list(old)
    for key in old:
        for a, b in zip(new[key], old[key]):
            assert a.dtype == b.dtype and np.array_equal(a, b)


class _DrawLog:
    """Stands in for numpy's Generator in gen_weights: logs each draw and
    returns a zero view of its size, which takes no memory."""

    def __init__(self, seed_seq):
        self.draws = [seed_seq.entropy]

    def integers(self, low, high, size, dtype):
        self.draws.append((low, high, tuple(size), dtype))
        return np.broadcast_to(dtype(0), size)


# Presets up to this many parameters are drawn for real on both sides;
# the largest hold up to 138 M weights, too many to draw twice in a test.
_DRAWN_PARAMS = 2_000_000


@pytest.mark.parametrize("model,dataset", _valid_presets())
def test_ops_and_weights_match_reference_on_presets(model, dataset, monkeypatch):
    arch = build_preset(model, dataset)
    _assert_ops_match_reference(arch)
    if count(arch).params <= _DRAWN_PARAMS:
        _assert_same_weights(gen_weights(arch, 3), netarch_oracle.gen_weights(arch, 3))
    # Both sides take every value from one generator seeded alike, so the
    # same draws in the same order give the same arrays.
    logs = []
    monkeypatch.setattr(np.random, "default_rng", lambda seq: logs.append(_DrawLog(seq)) or logs[-1])
    layouts = [[(key, w.shape, b.tolist()) for key, (w, b) in weights.items()]
               for weights in (gen_weights(arch, 3), netarch_oracle.gen_weights(arch, 3))]
    assert len(logs) == 2 and logs[0].draws == logs[1].draws
    assert layouts[0] == layouts[1]


def _out(size: int, kernel: int, stride: int, pad: int) -> int:
    return (size + 2 * pad - kernel) // stride + 1


@st.composite
def networks(draw):
    """Conv/ReLU blocks, each optionally closed by skips from the input or
    an earlier ReLU output, then an optional avgpool, flatten, FCs and an
    optional trailing ReLU."""
    c, h = draw(st.integers(1, 3)), draw(st.integers(3, 9))
    w = h + draw(st.integers(0, 2))
    classes = draw(st.integers(2, 6))
    layers, skips = [], []
    points = {-1: (c, h, w)}  # layer index -> shape of each masked value
    for _ in range(draw(st.integers(1, 4))):
        for _ in range(draw(st.integers(1, 2))):
            kernel = draw(st.sampled_from([1, 3]))
            stride = draw(st.sampled_from([1, 2]))
            pad = draw(st.integers(0, kernel // 2))
            if _out(min(h, w), kernel, stride, pad) < 1:
                stride, pad = 1, kernel // 2
            out_c = draw(st.integers(1, 4))
            layers.append(Conv(c, out_c, kernel, stride, pad, draw(st.booleans())))
            c, h, w = out_c, _out(h, kernel, stride, pad), _out(w, kernel, stride, pad)
        merge = len(layers) - 1
        for source in draw(st.lists(st.sampled_from(sorted(points)), max_size=2, unique=True)):
            sc, sh, sw = points[source]
            if (sc, sh, sw) == (c, h, w) and draw(st.booleans()):
                skips.append(SkipConnection(source, merge))
                continue
            kernel = draw(st.sampled_from([1, 3]))
            pad = kernel // 2
            for stride in range(1, sh + 1):
                if (_out(sh, kernel, stride, pad), _out(sw, kernel, stride, pad)) == (h, w):
                    proj = Conv(sc, c, kernel, stride, pad, draw(st.booleans()))
                    skips.append(SkipConnection(source, merge, proj))
                    break
        layers.append(ReLU())
        points[len(layers) - 1] = (c, h, w)
    pool = draw(st.sampled_from([None, AvgPool(), AvgPool(window=2)]))
    window = h if pool == AvgPool() else 2
    if pool is not None and window <= min(h, w):
        layers.append(pool)
        h, w = _out(h, window, window, 0), _out(w, window, window, 0)
    layers.append(Flatten())
    features = c * h * w
    for _ in range(draw(st.integers(0, 1))):
        hidden = draw(st.integers(1, 8))
        layers += [FC(features, hidden, draw(st.booleans())), ReLU()]
        features = hidden
    layers.append(FC(features, classes, draw(st.booleans())))
    if draw(st.booleans()):
        layers.append(ReLU())
    dataset = DatasetSpec(*points[-1], classes, "rand")
    arch = NetworkArch("random", dataset, tuple(layers), tuple(skips))
    validate(arch)
    return arch


@settings(max_examples=300, deadline=None)
@given(networks())
def test_count_matches_reference_on_random_networks(arch):
    assert astuple(count(arch)) == astuple(netarch_oracle.count(arch))


@settings(max_examples=300, deadline=None)
@given(networks(), st.integers(0, 2**16))
def test_ops_and_weights_match_reference_on_random_networks(arch, seed):
    _assert_ops_match_reference(arch)
    _assert_same_weights(gen_weights(arch, seed), netarch_oracle.gen_weights(arch, seed))


@settings(max_examples=300, deadline=None)
@given(networks())
def test_parse_inverts_serialize_on_random_networks(arch):
    assert parse(serialize(arch)) == arch


@pytest.mark.parametrize("model,dataset", itertools.product(
    sorted(MODELS), sorted({d.name for d in DATASETS.values()})))
def test_serialize_matches_reference_on_presets(model, dataset):
    arch = build_preset(model, dataset)
    assert serialize(arch) == netarch_oracle.serialize(arch)


@settings(max_examples=300, deadline=None)
@given(networks())
def test_serialize_matches_reference_on_random_networks(arch):
    assert serialize(arch) == netarch_oracle.serialize(arch)


_SHIPPED_ARCHS = sorted(
    p.read_text() for p in resources.files("pisim").joinpath("configs").joinpath("archs").iterdir()
    if p.name.endswith(".arch"))
# What a mutation sets a field to, and the tokens and lines it inserts:
# values of every field type, good and bad, and every directive and key.
_VALUES = ["0", "-1", "1", "2", "3", "+2", "1_0", "1.5", "x", "", "true", "FALSE", "yes",
           "global", "custom", "conv"]
_TOKENS = ["stride=2", "pad=1", "bias=true", "bias=False", "bias=yes", "window=2", "window=0",
           "in=3", "dataset=custom", "from=-1", "to=1", "kernel=1", "frob=1", "global", "conv",
           "=", "x", "#", "relu"]
_LINES = ["relu", "flatten", "avgpool global", "avgpool window=2", "avgpool window=3 stride=1",
          "avgpool window=0", "avgpool", "name x", "name", "name a b", "input",
          "input channels=3 height=8 width=8 classes=4", "skip from=0 to=1",
          "skip from=-1 to=2 conv in=3 out=4 kernel=1 pad=1 bias=true", "fc in=4 out=4",
          "conv in=1 out=1 kernel=1", "wibble", "", "# note"]


@st.composite
def mutated_archs(draw):
    """A shipped arch's text after one to three mutations: a field set to
    one of _VALUES, or a token or a line deleted, duplicated or inserted."""
    lines = [line.split() for line in draw(st.sampled_from(_SHIPPED_ARCHS)).splitlines()]
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines)))
        words = lines[i] if i < len(lines) else []
        j = draw(st.integers(0, len(words)))
        op = draw(st.sampled_from(["set", "delete token", "duplicate token", "insert token",
                                   "delete line", "duplicate line", "insert line"]))
        if op == "insert line":
            lines.insert(i, draw(st.sampled_from(_LINES)).split())
        elif op == "insert token" and i < len(lines):
            words.insert(j, draw(st.sampled_from(_TOKENS)))
        elif op == "delete line" and i < len(lines):
            del lines[i]
        elif op == "duplicate line" and i < len(lines):
            lines.insert(i, list(words))
        elif j < len(words):
            if op == "set":
                key, eq, _ = words[j].partition("=")
                words[j] = key + eq + draw(st.sampled_from(_VALUES))
            elif op == "delete token":
                del words[j]
            elif op == "duplicate token":
                words.insert(j, words[j])
    return "\n".join(" ".join(words) for words in lines)


def _parsed(parser, text):
    try:
        return parser(text, name_hint="hint")
    except ParseError as exc:
        return f"ParseError: {exc}"


@settings(max_examples=1000, deadline=None)
@given(mutated_archs())
def test_parse_matches_reference_on_mutated_shipped_archs(text):
    assert _parsed(parse, text) == _parsed(netarch_oracle.parse, text)
