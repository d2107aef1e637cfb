"""The batched plaintext oracle against the per-input int64 walk.

`tests/protocol_oracle.py` keeps the walk `plaintext_forward` used before
it took a block of inputs. Every input of a block must get the same
logits and the same ReLU pre-activations, bit for bit, and a block must
overflow at the first layer where any of its inputs does.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_netarch_equivalence import networks
from test_protocol import mini_res, verify_block

import protocol_oracle
from pisim.field import FieldOverflowRisk
from pisim.netarch import (
    FC,
    AvgPool,
    Conv,
    DatasetSpec,
    Flatten,
    NetworkArch,
    ReLU,
    build_preset,
    count,
    validate,
)
from pisim.protocol import gen_weights, plaintext_forward, sample_input
from pisim.protocol import verify as verify_module
from pisim.protocol.verify import verify_against_plaintext

TOYS = [build_preset("toy_cnn", ds) for ds in ("cifar100", "toy8")]
# overlapping pool windows: stride below the window
OVERLAP = NetworkArch(
    "overlap",
    DatasetSpec(2, 9, 7, 3, "overlap"),
    (Conv(2, 3, 3, stride=2, padding=2), ReLU(), AvgPool(window=3, stride=2), Flatten(),
     FC(12, 3)),
    (),
)
validate(OVERLAP)


def _first_overflow(message: str) -> int:
    """Index of the layer an overflow message names; -1 for the input."""
    found = re.match(r"layer (\d+) ", message)
    return int(found.group(1)) if found else -1


def _assert_block_matches_reference(arch, weights, xs):
    trace: dict[int, np.ndarray] = {}
    try:
        got = plaintext_forward(arch, weights, xs, trace=trace)
    except FieldOverflowRisk as exc:
        got, error = None, str(exc)
    failures = []
    for i, x in enumerate(xs):
        want_trace: dict[int, np.ndarray] = {}
        try:
            want = protocol_oracle.plaintext_forward(arch, weights, x, trace=want_trace)
        except FieldOverflowRisk as exc:
            failures.append(_first_overflow(str(exc)))
            continue
        if got is not None:
            assert got.dtype == want.dtype == np.int64
            assert np.array_equal(got[i], want), f"input {i}"
            assert trace.keys() == want_trace.keys()
            for j, pre in want_trace.items():
                assert np.array_equal(trace[j][i], pre), f"input {i}, relu {j}"
    if failures:
        assert got is None, "the block passed where an input overflows"
        assert _first_overflow(error) == min(failures)
    else:
        assert got is not None, error
        assert got.shape[0] == len(xs)


@pytest.mark.parametrize("arch", TOYS + [mini_res(), OVERLAP],
                         ids=["toy_cnn-cifar100", "toy_cnn-toy8", "mini_res", "overlap"])
@given(st.integers(1, 9), st.integers(0, 2**16))
@settings(max_examples=40, deadline=None)
def test_fixed_network_block_matches_reference(arch, n, seed):
    xs = np.stack([sample_input(arch, seed, trial) for trial in range(n)])
    _assert_block_matches_reference(arch, gen_weights(arch, seed), xs)


@given(networks(), st.integers(1, 9), st.integers(0, 2**32 - 1),
       st.sampled_from([16, 2**12, 2**22]))
@settings(max_examples=200, deadline=None)
def test_random_network_block_matches_reference(arch, n, seed, high):
    # inputs up to 2**22 drive about two thirds of the networks out of the
    # field window, at the input or at some layer
    rng = np.random.default_rng(seed)
    ds = arch.dataset
    xs = rng.integers(0, high, size=(n, ds.channels, ds.height, ds.width), dtype=np.int64)
    _assert_block_matches_reference(arch, gen_weights(arch, seed % 1000), xs)


@pytest.mark.parametrize("arch,n", [(TOYS[0], 18), (TOYS[1], 100)],
                         ids=["toy_cnn-cifar100", "toy_cnn-toy8"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_verify_sized_block_matches_reference(arch, n, seed):
    # the blocks `verify --trials 100` runs: 18 inputs on cifar100, and all
    # 100 in one block on toy8
    assert n == min(verify_block(arch), 100)
    xs = np.stack([sample_input(arch, seed, trial) for trial in range(n)])
    _assert_block_matches_reference(arch, gen_weights(arch, seed), xs)


def _verify_counting_blocks(arch, trials, monkeypatch) -> list[int]:
    """Run verify on arch, hold every trial to the reference, and return
    the number of inputs of each plaintext call, in order."""
    calls = []
    forward = verify_module.plaintext_forward

    def counted(arch, weights, xs):
        calls.append(len(xs))
        return forward(arch, weights, xs)

    monkeypatch.setattr(verify_module, "plaintext_forward", counted)
    result = verify_against_plaintext(arch, seed=2, trials=trials)
    assert result.ok
    assert [protocol.short for protocol in result.logits] == ["sg", "cg"]
    weights = gen_weights(arch, 2)
    want = [protocol_oracle.plaintext_forward(arch, weights, sample_input(arch, 2, trial)).tolist()
            for trial in range(trials)]
    assert result.expected.tolist() == want
    for logits in result.logits.values():
        assert logits.tolist() == want
    return calls


# around the block the rule gives: 18 trials on cifar100, 404 on toy8
BLOCK_CASES = [
    pytest.param(arch, trials, id=f"{arch.dataset.name}-{trials}")
    for arch in TOYS
    for b in [verify_block(arch)]
    for trials in (1, b - 1, b, b + 1, 2 * b + 3)
]


@pytest.mark.parametrize("arch,trials", BLOCK_CASES)
def test_verify_blocks_cover_every_trial_in_order(arch, trials, monkeypatch):
    b = verify_block(arch)
    calls = _verify_counting_blocks(arch, trials, monkeypatch)
    assert calls == [min(b, trials - s) for s in range(0, trials, b)]


def test_verify_runs_blocks_of_one_below_one_trials_elements(monkeypatch):
    c = count(TOYS[0])
    monkeypatch.setattr(verify_module, "BLOCK_ELEMENTS", c.mask_in_elems + c.mask_out_elems - 1)
    assert _verify_counting_blocks(TOYS[0], 3, monkeypatch) == [1, 1, 1]


# An FC from 3 inputs to 1 output: 15 * 2**50 is past 2**53, where
# doubles step by 2, so the float64 sum 15 * 2**50 + 1 - 15 * 2**50 can
# lose the 1 that the exact result keeps.
INEXACT = NetworkArch(
    "inexact", DatasetSpec(3, 1, 1, 1, "tiny3"), (Flatten(), FC(3, 1, bias=False)), ()
)
INEXACT_W = {1: (np.array([[2**50, 1, -(2**50)]], dtype=np.int64), np.zeros(1, dtype=np.int64))}


def test_guard_refuses_a_product_past_2_53():
    xs = np.array([15, 1, 15], dtype=np.int64).reshape(1, 3, 1, 1)
    assert protocol_oracle.plaintext_forward(INEXACT, INEXACT_W, xs[0]).tolist() == [1]
    with pytest.raises(FieldOverflowRisk, match=r"^layer 1 \(fc\): .*2\*\*53"):
        plaintext_forward(INEXACT, INEXACT_W, xs)
    # the same weights on inputs small enough for an exact product pass
    small = np.ones((1, 3, 1, 1), dtype=np.int64)
    assert plaintext_forward(INEXACT, INEXACT_W, small).tolist() == [[1]]
