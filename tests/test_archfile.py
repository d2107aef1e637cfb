"""Text round-tripping for architecture description files."""

import dataclasses

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pisim.netarch import (
    MODELS,
    ParseError,
    UnwritableValue,
    build_preset,
    count,
    load,
    parse,
    serialize,
    validate,
)

SHIPPED = sorted(MODELS)

# A strided skip projection with its own padding and bias, which a skip's
# conv reads and writes with the same fields as a layer conv.
PROJECTED_SKIP = """
name projected_skip
input channels=3 height=8 width=8 classes=4
conv in=3 out=4 kernel=3 pad=1
relu
conv in=4 out=8 kernel=3 stride=2 pad=1
skip from=1 to=2 conv in=4 out=8 kernel=3 stride=2 pad=1 bias=true
relu
avgpool global
flatten
fc in=8 out=4
"""


@pytest.mark.parametrize("model", SHIPPED + ["projected_skip"])
def test_roundtrip_presets(model):
    if model == "projected_skip":
        arch = parse(PROJECTED_SKIP)
        assert (arch.skips[0].conv.padding, arch.skips[0].conv.bias) == (1, True)
    else:
        arch = build_preset(model, "cifar100")
    again = parse(serialize(arch), name_hint=arch.name)
    validate(again)
    assert again.layers == arch.layers
    assert again.skips == arch.skips
    assert count(again) == count(arch)


def test_serialize_load(tmp_path):
    arch = build_preset("toy_cnn", "cifar100")
    p = tmp_path / "toy.arch"
    p.write_text(serialize(arch))
    back = load(p)
    assert back.layers == arch.layers
    assert back.dataset == arch.dataset


def test_parse_minimal():
    arch = parse(
        """
        name tiny
        input channels=3 height=8 width=8 classes=4
        conv in=3 out=4 kernel=3 stride=1 pad=1
        relu
        avgpool global
        flatten
        fc in=4 out=4
        """
    )
    validate(arch)
    assert len(arch.layers) == 5


_INPUT = "input channels=3 height=8 width=8 classes=4\n"


@pytest.mark.parametrize(
    "text, match",
    [
        (_INPUT + "conv in=3", "line 2: missing field 'out'"),
        ("conv in=3 out=4 kernel=3", "line 0: missing input directive"),
        (_INPUT + "wibble", "unknown directive 'wibble'"),
        (_INPUT + "conv in=3 out=4 kernel=3 frobnicate=1", r"unknown fields \['frobnicate'\]"),
        (_INPUT + "skip from=0 to=5", "no layers defined"),
        (_INPUT + "conv in=3 out kernel=3", "expected key=value, got 'out'"),
        (_INPUT + "conv in=3 in=3 out=4 kernel=3", "duplicate field 'in'"),
        (_INPUT + "conv in=3 out=4 kernel=3x3", "field 'kernel' is not an integer"),
        (_INPUT + "fc in=4 out=4 bias=yes", "field 'bias' must be true or false"),
        ("name tiny net\n" + _INPUT + "relu", "line 1: name takes exactly one identifier"),
        (_INPUT + "relu inplace=true", "relu takes no fields"),
        (_INPUT + "flatten start=1", "flatten takes no fields"),
        (_INPUT + "avgpool window=0", "line 2: window must be positive"),
    ],
    ids=["missing-keys", "no-input", "unknown-directive", "unknown-key", "skip-oob",
         "no-equals", "duplicate-field", "not-integer", "bad-bool", "name-extra", "relu-fields",
         "flatten-fields", "window-0"],
)
def test_parse_errors(text, match):
    with pytest.raises(ParseError, match=match):
        parse(text)


def test_load_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load(tmp_path / "nope.arch")


_WORDS = st.text(st.characters(blacklist_categories=("Cs",)), max_size=8)


@settings(max_examples=300, deadline=None)
@given(name=_WORDS, label=_WORDS)
@example(name="my net", label="cifar100")
@example(name="a#b", label="cifar100")
@example(name="", label="cifar100")
@example(name="toy", label="")
@example(name="toy", label="a=b")
@example(name="toy", label="c 100")
@example(name="toy", label="\x85")
def test_a_name_and_label_round_trip_or_are_refused(name, label):
    toy = build_preset("toy_cnn", "cifar100")
    arch = dataclasses.replace(toy, name=name,
                               dataset=dataclasses.replace(toy.dataset, name=label))
    try:
        text = serialize(arch)
    except UnwritableValue as err:
        assert str(err).split()[0] in ("name", "dataset")
        # refused only where the text written unchecked would not read back
        marked = serialize(dataclasses.replace(
            toy, name="N", dataset=dataclasses.replace(toy.dataset, name="L")))
        unchecked = marked.replace("name N\n", f"name {name}\n", 1).replace(
            " dataset=L\n", f" dataset={label}\n", 1)
        try:
            back = parse(unchecked)
        except ParseError:
            return
        assert (back.name, back.dataset.name) != (name, label)
        return
    assert parse(text) == arch


@pytest.mark.parametrize("stem", ["my net", "a#b"])
def test_a_file_stem_that_is_no_word_is_refused_by_name(stem, tmp_path):
    # a file with no name line is named by its stem
    path = tmp_path / f"{stem}.arch"
    path.write_text(_INPUT + "flatten\nfc in=192 out=4\n")
    arch = load(path)
    assert arch.name == stem
    with pytest.raises(UnwritableValue, match=f"^name {stem!r} cannot be written"):
        serialize(arch)
