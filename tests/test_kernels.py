"""Kernels against their loop references, and field arithmetic semantics."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kernel_oracle as ref
from protocol_oracle import sample_elements
from pisim import _kernels as K
from pisim.field import (
    FIELD_MODULUS,
    FieldOverflowRisk,
    HALF_RANGE as HALF,
    decode_signed,
    encode,
    reduce_once,
    seeded_integers,
)

P = FIELD_MODULUS


def _rng():
    return np.random.default_rng(20240817)


def test_modulus_products_fit_int64():
    # p^2 must stay below 2^63 or the loop references silently wrap
    assert (P - 1) ** 2 < 2**63


def test_prepare_weights_at_the_bound():
    # 3 * (p - 1) * K < 2**53 holds up to fan-in 1,398,101 and no further
    assert K.prepare_weights(np.full((2, 1_398_101), 3)).matrix.shape == (2, 1_398_101)
    with pytest.raises(FieldOverflowRisk, match="fan-in 1398102"):
        K.prepare_weights(np.full((2, 1_398_102), 3))


@given(st.integers(1024, HALF), st.booleans())
@settings(max_examples=100, deadline=None)
def test_prepare_weights_admits_the_largest_exact_fan_in(w_max, negative):
    # the largest fan-in at which max|w| * (p - 1) * K stays below 2**53,
    # whichever sign the largest weight has
    k = (2**53 - 1) // (w_max * (P - 1))
    w = encode(-w_max if negative else w_max)
    assert K.prepare_weights(np.full((1, k), w)).matrix.shape == (1, k)
    with pytest.raises(FieldOverflowRisk):
        K.prepare_weights(np.full((1, k + 1), w))


def test_encode_decode_roundtrip():
    vals = np.array([-HALF, -1, 0, 1, HALF])
    assert np.array_equal(decode_signed(encode(vals)), vals)


@given(st.integers(min_value=-HALF, max_value=HALF))
def test_encode_decode_roundtrip_property(v):
    assert int(decode_signed(encode(np.array([v])))[0]) == v


def test_sample_elements_in_range():
    x = sample_elements(_rng(), (1000,))
    assert x.dtype == np.int64
    assert x.min() >= 0 and x.max() < P


SPANS = [1, 2, 7, 16, 2**31 - 1, 3 * 2**30, 2**32 - 1]


@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=4), st.sampled_from(SPANS),
       st.integers(-2**40, 2**40), st.integers(0, 300), st.integers(0, 300))
@settings(max_examples=300, deadline=None)
# span 3 * 2**30 skips a quarter of the halves: 1001 values need a refill
@example([7], 3 * 2**30, 0, 1001, 1)
def test_seeded_integers_equals_numpy(entropy, span, low, n, more):
    """One draw equals a fresh generator's integers(low, high, n), and a
    generator's two successive integers calls equal one draw of their
    total: numpy reads the stream with no gap between calls."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy))
    first = rng.integers(low, low + span, n, dtype=np.int64)
    second = rng.integers(low, low + span, more, dtype=np.int64)
    got = seeded_integers(entropy, low, low + span, n)
    assert got.dtype == np.int64 and np.array_equal(got, first)
    assert np.array_equal(seeded_integers(entropy, low, low + span, n + more),
                          np.concatenate((first, second)))


@pytest.mark.parametrize("low, high", [(0, 0), (3, 2), (0, 2**32), (-1, 2**32 + 5)])
def test_seeded_integers_rejects_a_span_outside_32_bits(low, high):
    with pytest.raises(ValueError, match="span"):
        seeded_integers([1], low, high, 4)


_TOP = 2**53 - 1  # the largest |s| a float64 product may reach
# k * p - 1, k * p and k * p + 1, k up to the largest with k * p + 1 <= _TOP
_QUOTIENT_EDGES = [k * P + d for k in (1, 2, 2**21, 2**22 - 1, _TOP // P) for d in (-1, 0, 1)]


@given(st.lists(st.integers(-_TOP, _TOP), max_size=64), st.booleans())
@settings(max_examples=200, deadline=None)
def test_float_reduction_equals_remainder(values, with_bias):
    """_mod_p, the kernels' float64 reduction, against int64 % at sums of
    either sign up to 2**53 - 1 in magnitude, the quotient edges included."""
    edges = [0, 1, _TOP, _TOP - 1, *_QUOTIENT_EDGES]
    s = np.array([*edges, *(-e for e in edges), *values], dtype=np.int64)
    b = (np.arange(len(s)) * 104_729 - 1) % P if with_bias else None
    got = K._mod_p(s.astype(np.float64), b)
    assert got.dtype == np.int64
    assert np.array_equal(got, (s + (0 if b is None else b)) % P)


@given(st.lists(st.integers(0, 2 * P - 1), max_size=64))
@settings(max_examples=200, deadline=None)
def test_reduce_once_equals_remainder(values):
    # the edges 0, p - 1, p and 2p - 1 ride along with every draw
    x = np.array([0, P - 1, P, 2 * P - 1, *values], dtype=np.int64)
    want = np.remainder(x, P)
    got = reduce_once(x)
    assert got is x and got.dtype == np.int64
    assert np.array_equal(got, want)


_ENCODE_EDGES = [-P, -1, 0, P - 1, P, 2 * P]


@given(st.lists(st.one_of(st.sampled_from(_ENCODE_EDGES), st.integers(-2**62, 2**62)),
                max_size=64))
@settings(max_examples=200, deadline=None)
@example([])
@example([0, 3, P - 1, 7])  # all in [0, p): no % runs
def test_encode_equals_remainder(values):
    """encode against an unconditional remainder, values in [0, p) or not,
    empty arrays and two axes included; it returns a new array."""
    v = np.array(values, dtype=np.int64)
    for x in (v, v[: len(v) // 2 * 2].reshape(2, -1)):
        want = np.asarray(x, np.int64) % P
        got = encode(x)
        assert got.dtype == np.int64 and got.shape == want.shape
        assert np.array_equal(got, want)
        assert not np.shares_memory(got, x)


@pytest.mark.parametrize("edge", _ENCODE_EDGES)
def test_encode_edges_alone(edge):
    # a 0-d value and a one-element array at each edge
    for v in (edge, [edge]):
        assert np.array_equal(encode(v), np.asarray(v, np.int64) % P)


# share pairs (a, b) whose sums sit at the reductions' edges: p - 1, p and
# 2p - 2, and HALF_RANGE and HALF_RANGE + 1 with and without a p to take off
_EDGE_SHARES = [
    (0, P - 1), (P - 1, 0), (HALF, HALF),
    (1, P - 1), (P - 1, 1),
    (P - 1, P - 1),
    (0, HALF), (HALF, 0), (P - 1, HALF + 1),
    (1, HALF), (HALF + 1, 0), (P - 1, HALF + 2),
]


def test_relu_remask_at_the_reduction_edges():
    a, b, r = (
        np.array(column, dtype=np.int64)
        for column in zip(*((a, b, r) for a, b in _EDGE_SHARES for r in (0, P - 1)))
    )
    want = ref.relu_remask_mod_loop(a, b, r, P)
    assert np.array_equal(K.relu_remask_mod(a, b, r), want)
    # every edge sum is among the cases
    assert set((a + b).tolist()) >= {P - 1, P, 2 * P - 2, HALF, HALF + 1}


class TestBackendsAgree:
    """The numpy kernels must match the per-element loop references exactly."""

    def test_conv2d(self):
        rng = _rng()
        x = sample_elements(rng, (3, 9, 9))
        w = sample_elements(rng, (5, 3, 3, 3)) % 11
        b = sample_elements(rng, 5) % 11
        for stride, pad in [(1, 0), (1, 1), (2, 1), (3, 0)]:
            a = K.conv2d_mod(x, K.prepare_weights(w), b, stride, pad)
            c = ref.conv2d_mod_loop(x, w, b, stride, pad, P)
            assert np.array_equal(a, c)

    def test_matvec(self):
        rng = _rng()
        # the largest weights the 2**53 bound admits at fan-in 33
        w_max = (2**53 - 1) // ((P - 1) * 33)
        w = encode(rng.integers(-w_max, w_max + 1, size=(7, 33)))
        x = sample_elements(rng, 33)
        b = sample_elements(rng, 7)
        assert np.array_equal(
            K.matvec_mod(K.prepare_weights(w), x, b), ref.matvec_mod_loop(w, x, b, P)
        )

    def test_sumpool(self):
        x = sample_elements(_rng(), (4, 8, 8))
        for window, stride in [(2, 2), (4, 4), (3, 2), (8, 8)]:
            a = K.sumpool_mod(x, window, stride)
            c = ref.sumpool_mod_loop(x, window, stride, P)
            assert np.array_equal(a, c)

    def test_relu_remask(self):
        rng = _rng()
        a = sample_elements(rng, 4096)
        b = sample_elements(rng, 4096)
        r = sample_elements(rng, 4096)
        assert np.array_equal(
            K.relu_remask_mod(a, b, r), ref.relu_remask_mod_loop(a, b, r, P)
        )


@given(
    st.integers(min_value=0, max_value=P - 1),
    st.integers(min_value=0, max_value=P - 1),
    st.integers(min_value=0, max_value=P - 1),
)
@settings(max_examples=200, deadline=None)
def test_relu_remask_semantics(a, b, r):
    # gadget output = ReLU of the signed reconstruction, re-masked by r
    x = (a + b) % P
    signed = x - P if x > HALF else x
    want = (max(signed, 0) - r) % P
    got = K.relu_remask_mod(
        np.array([a], dtype=np.int64),
        np.array([b], dtype=np.int64),
        np.array([r], dtype=np.int64),
    )
    assert int(got[0]) == want


def test_conv_matches_integer_reference():
    # small dense case checked against a direct integer convolution
    rng = _rng()
    x_s = rng.integers(-4, 5, size=(2, 5, 5))
    w_s = rng.integers(-3, 4, size=(3, 2, 2, 2))
    b_s = rng.integers(-3, 4, size=3)
    prepared = K.prepare_weights(encode(w_s))
    # signed weights prepare to the same re-centred matrix as their residues
    assert np.array_equal(K.prepare_weights(w_s).matrix, prepared.matrix)
    assert np.array_equal(prepared.matrix, w_s.reshape(3, -1))
    got = K.conv2d_mod(encode(x_s), prepared, encode(b_s), 1, 0)
    for co in range(3):
        for oy in range(4):
            for ox in range(4):
                ref = int((x_s[:, oy : oy + 2, ox : ox + 2] * w_s[co]).sum() + b_s[co])
                assert int(decode_signed(got[co, oy, ox])) == ref
