"""Preset architectures, shape inference, and count goldens."""

import re
from dataclasses import astuple

import pytest

from pisim.costmodel import CommInputs, load_shipped_costs, load_shipped_model
from pisim.costmodel.calibrate import calibrate
from pisim.netarch import (
    AvgPool,
    Conv,
    DatasetSpec,
    FC,
    Flatten,
    InvalidArch,
    NetworkArch,
    ReLU,
    SkipConnection,
    UnknownPreset,
    build_preset,
    canonical_dataset,
    count,
    get_dataset,
    infer_shapes,
    layer_kind_counts,
    validate,
)
from pisim.netarch import shapes as shape_module

# exact values the counting code reproduces, as LayerCounts fields in
# order: params, flops, relus, conv_flops, fc_flops, n_units,
# mask_in_elems, mask_out_elems. The published table rounds params to
# 0.1M/1M and flops+relus to one decimal. resnet32 has 31 convs + 1 fc +
# 13 skips, each a homomorphic unit.
GOLDEN = {
    ("resnet32", "cifar100"): (
        467_732, 68_868_352, 303_104, 68_861_952, 6_400, 45, 306_176, 434_276
    ),
    ("vgg16", "cifar100"): (
        34_006_948, 332_480_512, 284_672, 313_196_544, 19_283_968, 16, 287_744, 284_772
    ),
    ("resnet18", "cifar100"): (
        11_210_532, 555_468_800, 557_056, 555_417_600, 51_200, 26, 560_128, 802_916
    ),
    ("resnet32", "tinyimagenet"): (
        474_232, 275_460_608, 1_212_416, 275_447_808, 12_800, 45, 1_224_704, 1_736_904
    ),
    ("resnet18", "tinyimagenet"): (
        11_261_832, 2_221_772_800, 2_228_224, 2_221_670_400, 102_400, 26, 2_240_512, 3_211_464
    ),
}


@pytest.mark.parametrize("model,dataset", sorted(GOLDEN))
def test_count_goldens(model, dataset):
    assert astuple(count(build_preset(model, dataset))) == GOLDEN[(model, dataset)]


def test_one_shape_walk_per_count(monkeypatch):
    walks = []
    infer = shape_module.infer_shapes

    def counted(arch):
        walks.append(arch.name)
        return infer(arch)

    monkeypatch.setattr(shape_module, "infer_shapes", counted)
    arch = build_preset("resnet32", "cifar100")
    count(arch)
    assert len(walks) == 1
    CommInputs.from_arch(arch)
    assert len(walks) == 2
    rows = load_shipped_costs()
    walks.clear()
    calibrate(rows)  # the six presets of the shipped table
    assert 0 < len(walks) <= 12
    walks.clear()
    load_shipped_model()  # the shipped fit is read as data
    assert walks == []


def test_published_rounding_cifar100():
    published = {
        "resnet32": (0.5e6, 68.9e6, 303.1e3),
        "vgg16": (34e6, 332.5e6, 284.7e3),
        "resnet18": (11e6, 555.5e6, 557.1e3),
    }
    # flops and relus agree to well under 1%; params only to the
    # table's printed precision (half of the last printed digit)
    half_digit = {"resnet32": 0.05e6, "vgg16": 0.5e6, "resnet18": 0.5e6}
    for model, (p_pub, f_pub, r_pub) in published.items():
        c = count(build_preset(model, "cifar100"))
        assert abs(c.flops - f_pub) / f_pub < 0.01
        assert abs(c.relus - r_pub) / r_pub < 0.01
        assert abs(c.params - p_pub) <= half_digit[model]


def test_dataset_aliases():
    assert canonical_dataset("c100") == "cifar100"
    assert canonical_dataset("tiny") == "tinyimagenet"
    assert canonical_dataset("cifar100") == "cifar100"
    assert canonical_dataset("not-a-dataset") == "not-a-dataset"
    assert get_dataset("tiny").height == 64


def test_unknown_preset():
    with pytest.raises(UnknownPreset):
        build_preset("lenet", "cifar100")
    with pytest.raises(UnknownPreset):
        build_preset("resnet32", "svhn")


def test_layer_kind_counts_resnet32():
    kinds = layer_kind_counts(build_preset("resnet32", "cifar100"))
    assert kinds["conv"] == 31
    assert kinds["relu"] == 31
    assert kinds["fc"] == 1


def test_linear_profile_resnet32():
    c = count(build_preset("resnet32", "cifar100"))
    # 31 convs + 1 fc + 13 skips, each a homomorphic unit
    assert c.n_units == 45
    assert c.mask_in_elems == 306_176
    assert c.mask_out_elems == 434_276
    assert c.conv_flops + c.fc_flops == 68_868_352


def test_infer_shapes_output_is_class_count():
    arch = build_preset("resnet18", "tinyimagenet")
    shapes = infer_shapes(arch)
    assert shapes[-1] == (200,)


def _tiny(layers, skips=(), h=6):
    return NetworkArch(
        "t",
        get_dataset("toy8").__class__(2, h, h, 4, "t"),
        tuple(layers),
        tuple(skips),
    )


def test_validate_rejects_channel_mismatch():
    bad = _tiny([Conv(2, 4, 3, padding=1), ReLU(), Conv(8, 4, 3, padding=1)])
    with pytest.raises(InvalidArch):
        validate(bad)


def test_validate_rejects_fc_before_flatten():
    bad = _tiny([Conv(2, 4, 3, padding=1), ReLU(), FC(4, 4)])
    with pytest.raises(InvalidArch):
        validate(bad)


def test_validate_rejects_skip_shape_mismatch():
    bad = _tiny(
        [Conv(2, 4, 3, padding=1), ReLU(), Conv(4, 8, 3, padding=1), ReLU()],
        skips=[SkipConnection(source=1, merge=2)],
    )
    with pytest.raises(InvalidArch):
        validate(bad)


def test_validate_rejects_skip_from_conv():
    # layer 2 is a conv, whose output carries no client mask
    bad = _tiny(
        [Conv(2, 4, 3, padding=1), ReLU(), Conv(4, 4, 3, padding=1), ReLU(),
         Conv(4, 4, 3, padding=1), ReLU(), AvgPool(), Flatten(), FC(4, 4)],
        skips=[SkipConnection(source=2, merge=4)],
    )
    for check in (validate, count):
        with pytest.raises(InvalidArch, match="skip 0: source layer 2 is not a mask point"):
            check(bad)


def test_validate_rejects_skip_merge_into_pool():
    bad = _tiny(
        [Conv(2, 4, 3, padding=1), ReLU(), Conv(4, 4, 3, padding=1), AvgPool(), Flatten(),
         FC(4, 4)],
        skips=[SkipConnection(source=1, merge=2)],
    )
    for check in (validate, count):
        with pytest.raises(InvalidArch, match="merge layer 2 must feed directly into a relu"):
            check(bad)


def test_validate_accepts_projection_skip():
    ok = _tiny(
        [
            Conv(2, 4, 3, padding=1),
            ReLU(),
            Conv(4, 8, 3, stride=2, padding=1),
            ReLU(),
            AvgPool(),
            Flatten(),
            FC(8, 4),
        ],
        skips=[SkipConnection(source=1, merge=2, conv=Conv(4, 8, 1, stride=2))],
    )
    validate(ok)
    assert count(ok).relus > 0


def test_skip_projection_bias_counts_as_params():
    def arch(bias):
        proj = Conv(4, 8, 1, stride=2, bias=bias)
        return _tiny(
            [Conv(2, 4, 3, padding=1), ReLU(), Conv(4, 8, 3, stride=2, padding=1), ReLU(),
             AvgPool(), Flatten(), FC(8, 4)],
            skips=[SkipConnection(source=1, merge=2, conv=proj)],
        )

    assert count(arch(True)).params == count(arch(False)).params + 8


# A skip's projection conv feeds layer 2 of this net; a bad one is named
# by its skip, not by the layer it leaves.
PROJECTED = [Conv(2, 4, 3, padding=1), ReLU(), Conv(4, 4, 3, padding=1), ReLU(),
             Flatten(), FC(144, 4)]


@pytest.mark.parametrize(
    "part, h, message",
    [
        (Conv(2, 4, 3, stride=0), 6, "layer 0: conv: stride must be positive, got 0"),
        (Conv(2, 4, 0), 6, "layer 0: conv: kernel must be positive, got 0"),
        (Conv(2, 0, 3), 6, "layer 0: conv: out must be positive, got 0"),
        (Conv(2, 4, 3, padding=-1), 6, "layer 0: conv: pad must be non-negative, got -1"),
        (AvgPool(window=-2), 6, "layer 0: avgpool: window must be positive, got -2"),
        (AvgPool(window=2, stride=0), 6, "layer 0: avgpool: stride must be positive, got 0"),
        (Conv(2, 4, 3), 0, "input: height must be positive, got 0"),
        (SkipConnection(1, 2, Conv(4, 4, 1, stride=0)), 6,
         "skip 0: conv: stride must be positive, got 0"),
        (SkipConnection(-1, 2, Conv(3, 4, 1)), 6, "skip 0: conv expects 3 channels, got 2"),
        (SkipConnection(-1, 2, Conv(2, 4, 9)), 6,
         "skip 0: conv output would be -2x-2 for input 6x6"),
    ],
)
def test_validate_rejects_degenerate_fields(part, h, message):
    if isinstance(part, SkipConnection):
        arch = _tiny(PROJECTED, skips=[part], h=h)
    else:
        arch = _tiny([part, Flatten(), FC(1, 4)], h=h)
    with pytest.raises(InvalidArch, match=f"^{message}$"):
        validate(arch)


def test_pool_too_large_raises():
    bad = _tiny([Conv(2, 4, 3), AvgPool(window=9, stride=9)], h=6)
    with pytest.raises(InvalidArch):
        validate(bad)


@pytest.mark.parametrize(
    "layers, skips, message",
    [
        ([Conv(2, 4, 3), Flatten(), Flatten(), FC(64, 4)], (), "layer 2: flatten applied twice"),
        ([Flatten(), Conv(72, 4, 1)], (), "layer 1: conv applied to flattened input"),
        ([Flatten(), AvgPool(window=2)], (), "layer 1: avgpool applied to flattened input"),
        ([Conv(2, 4, 3), FC(64, 4)], (), "layer 1: fc requires flattened input"),
        ([], (), "empty layer list"),
        (PROJECTED, [SkipConnection(1, 6)], "skip 1->6 out of range"),
        (PROJECTED, [SkipConnection(-2, 2)], "skip -2->2 out of range"),
        (PROJECTED, [SkipConnection(3, 2)], "skip 3->2 not forward"),
        (PROJECTED, [SkipConnection(1, 1)], "skip 1->1 not forward"),
        ([Conv(2, 4, 3, padding=1), ReLU(), Flatten(), FC(100, 4)], (),
         "layer 3: fc expects 100 features, got 144"),
        ([Conv(2, 4, 3, padding=1), ReLU(), Conv(4, 8, 3, padding=1), ReLU(), Flatten(),
          FC(288, 4)], [SkipConnection(1, 2)],
         "skip 1->2 shape (4, 6, 6) does not match merge shape (8, 6, 6)"),
    ],
    ids=["flatten-twice", "conv-flattened", "avgpool-flattened", "fc-unflattened", "empty",
         "merge-out-of-range", "source-out-of-range", "backward", "self", "fc-features",
         "skip-shape"],
)
def test_validate_rejects_bad_structure(layers, skips, message):
    with pytest.raises(InvalidArch, match=f"^{re.escape(message)}$"):
        validate(_tiny(layers, skips))
