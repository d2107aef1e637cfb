"""count() as a fold over the lowering, against its old layer walk.

`tests/netarch_oracle.py` keeps the walk `count()` used before it read
`compile_network`; every field must agree, on the presets and on random
valid networks with identity and projection skips.
"""

import itertools
from dataclasses import astuple

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
    ReLU,
    SkipConnection,
    build_preset,
    count,
    validate,
)


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
    dataset = DatasetSpec("rand", *points[-1], classes)
    arch = NetworkArch("random", dataset, tuple(layers), tuple(skips))
    validate(arch)
    return arch


@settings(max_examples=300, deadline=None)
@given(networks())
def test_count_matches_reference_on_random_networks(arch):
    assert astuple(count(arch)) == astuple(netarch_oracle.count(arch))
