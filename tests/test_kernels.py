"""Kernels against their loop references, and field arithmetic semantics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kernel_oracle as ref
from pisim import _kernels as K
from pisim.field import (
    FIELD_MODULUS,
    FieldOverflowRisk,
    check_activation_bound,
    decode_signed,
    encode,
    half_range,
    sample_elements,
)

P = FIELD_MODULUS
HALF = half_range(P)


def _rng():
    return np.random.default_rng(20240817)


def test_modulus_products_fit_int64():
    # p^2 must stay below 2^63 or the kernels silently wrap
    assert (P - 1) ** 2 < 2**63


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


def test_check_activation_bound():
    check_activation_bound(HALF)
    with pytest.raises(FieldOverflowRisk):
        check_activation_bound(HALF + 1)


class TestBackendsAgree:
    """The numpy kernels must match the per-element loop references exactly."""

    def test_conv2d(self):
        rng = _rng()
        x = sample_elements(rng, (3, 9, 9))
        w = sample_elements(rng, (5, 3, 3, 3)) % 11
        b = sample_elements(rng, 5) % 11
        for stride, pad in [(1, 0), (1, 1), (2, 1), (3, 0)]:
            a = K.conv2d_mod(x, w, b, stride, pad, P)
            c = ref.conv2d_mod_loop(x, w, b, stride, pad, P)
            assert np.array_equal(a, c)

    def test_matvec(self):
        rng = _rng()
        w = sample_elements(rng, (7, 33))
        x = sample_elements(rng, 33)
        b = sample_elements(rng, 7)
        assert np.array_equal(
            K.matvec_mod(w, x, b, P), ref.matvec_mod_loop(w, x, b, P)
        )

    def test_sumpool(self):
        x = sample_elements(_rng(), (4, 8, 8))
        for window, stride in [(2, 2), (4, 4), (3, 2), (8, 8)]:
            a = K.sumpool_mod(x, window, stride, P)
            c = ref.sumpool_mod_loop(x, window, stride, P)
            assert np.array_equal(a, c)

    def test_relu_remask(self):
        rng = _rng()
        a = sample_elements(rng, 4096)
        b = sample_elements(rng, 4096)
        r = sample_elements(rng, 4096)
        assert np.array_equal(
            K.relu_remask_mod(a, b, r, P), ref.relu_remask_mod_loop(a, b, r, P)
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
        P,
    )
    assert int(got[0]) == want


def test_conv_matches_integer_reference():
    # small dense case checked against a direct integer convolution
    rng = _rng()
    x_s = rng.integers(-4, 5, size=(2, 5, 5))
    w_s = rng.integers(-3, 4, size=(3, 2, 2, 2))
    b_s = rng.integers(-3, 4, size=3)
    got = K.conv2d_mod(encode(x_s), encode(w_s), encode(b_s), 1, 0, P)
    for co in range(3):
        for oy in range(4):
            for ox in range(4):
                ref = int((x_s[:, oy : oy + 2, ox : ox + 2] * w_s[co]).sum() + b_s[co])
                assert int(decode_signed(got[co, oy, ox])) == ref
