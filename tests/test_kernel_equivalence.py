"""The linear kernels against the loop references in kernel_oracle.

The numpy field kernels and the plaintext oracle's convolution must equal
the references exactly, for every modulus the kernels admit: the default
Mersenne prime and the largest prime whose square fits in int64.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import kernel_oracle
from pisim import _kernels as K
from pisim.field import FIELD_MODULUS
from pisim.protocol.oracle import _conv_plain

# largest prime p with p**2 < 2**63, the top of the kernels' range
P_MAX = 3_037_000_493
MODULI = st.sampled_from([FIELD_MODULUS, P_MAX])


@st.composite
def residues(draw, shape, p):
    """Field elements in [0, p): uniform, all p - 1, or a mix of the two."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.integers(0, p, size=shape, dtype=np.int64)
    mode = draw(st.sampled_from(["uniform", "max", "mixed"]))
    if mode == "max":
        x[...] = p - 1
    elif mode == "mixed":
        x[rng.random(shape) < 0.5] = p - 1
    return x


@given(st.data(), MODULI, st.integers(1, 8), st.integers(1, 300))
@settings(max_examples=200, deadline=None)
def test_matvec_matches_reference(data, p, rows, cols):
    w = data.draw(residues((rows, cols), p))
    x = data.draw(residues((cols,), p))
    b = data.draw(residues((rows,), p))
    assert np.array_equal(K.matvec_mod(w, x, b, p), kernel_oracle.matvec_mod(w, x, b, p))


# 2**17 + 5 columns of p - 1 overflow int64 unless partial sums are
# reduced chunk by chunk
@given(st.data(), MODULI, st.sampled_from([2**14 - 1, 2**14, 2**14 + 5, 2**15 + 3, 2**17 + 5]))
@settings(max_examples=30, deadline=None)
def test_matvec_across_the_chunk_boundary(data, p, cols):
    w = data.draw(residues((2, cols), p))
    x = data.draw(residues((cols,), p))
    b = data.draw(residues((2,), p))
    assert np.array_equal(K.matvec_mod(w, x, b, p), kernel_oracle.matvec_mod(w, x, b, p))


def test_conv_across_the_chunk_boundary():
    # 1821 channels x 3 x 3 = 16389 products per output, just past 2**14
    for p in (FIELD_MODULUS, P_MAX):
        x = np.full((1821, 4, 3), p - 1, dtype=np.int64)
        w = np.full((2, 1821, 3, 3), p - 1, dtype=np.int64)
        b = np.full(2, p - 1, dtype=np.int64)
        got = K.conv2d_mod(x, w, b, 1, 0, p)
        assert np.array_equal(got, kernel_oracle.conv2d_mod(x, w, b, 1, 0, p))


@st.composite
def conv_case(draw):
    """Shapes for a valid conv, including sizes that are not a multiple
    of the stride."""
    stride = draw(st.integers(1, 3))
    pad = draw(st.integers(0, 2))
    k = draw(st.integers(1, 3))
    lo = max(1, k - 2 * pad)
    h = draw(st.integers(lo, lo + 8))
    w = draw(st.integers(lo, lo + 8))
    return draw(st.integers(1, 3)), draw(st.integers(1, 4)), h, w, k, stride, pad


@given(st.data(), MODULI, conv_case())
@settings(max_examples=200, deadline=None)
def test_conv_matches_reference(data, p, case):
    ci, co, h, ww, k, stride, pad = case
    x = data.draw(residues((ci, h, ww), p))
    w = data.draw(residues((co, ci, k, k), p))
    b = data.draw(residues((co,), p))
    got = K.conv2d_mod(x, w, b, stride, pad, p)
    assert np.array_equal(got, kernel_oracle.conv2d_mod(x, w, b, stride, pad, p))


@given(st.integers(0, 2**32 - 1), st.integers(1, 2**20), conv_case())
@settings(max_examples=200, deadline=None)
def test_oracle_conv_matches_reference(seed, bound, case):
    ci, co, h, ww, k, stride, pad = case
    rng = np.random.default_rng(seed)
    x = rng.integers(-bound, bound + 1, size=(ci, h, ww), dtype=np.int64)
    w = rng.integers(-3, 4, size=(co, ci, k, k), dtype=np.int64)
    b = rng.integers(-3, 4, size=co, dtype=np.int64)
    got = _conv_plain(x, w, b, stride, pad)
    want = kernel_oracle.conv_plain(x, w, b, stride, pad)
    assert got.dtype == np.int64
    assert np.array_equal(got, want)
