"""The linear kernels against the loop references in kernel_oracle.

The numpy field kernels and the plaintext oracle's block convolution must equal
the references exactly, with a bias and without one (b=None). The field
kernels take weights prepared by `prepare_weights`, which admits them only
while max|w| * (p - 1) * fan-in < 2**53; the weights here are drawn up to
the largest |w| that bound admits for the drawn fan-in, that edge included,
and the inputs over all of [0, p). A kernel given a batch of inputs must
return, bit for bit, the stack of its calls on each input alone.
"""

import math
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import kernel_oracle
from pisim import _kernels as K
from pisim.field import FIELD_MODULUS as P
from pisim.protocol import oracle


def w_bound(fan_in):
    """The largest |w| prepare_weights admits at this fan-in."""
    return (2**53 - 1) // ((P - 1) * fan_in)


@st.composite
def residues(draw, shape):
    """Field elements in [0, p): uniform, all p - 1, a mix of the two, or
    the two residues (p -+ 1) / 2 either side of the signed window's edge."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.integers(0, P, size=shape, dtype=np.int64)
    mode = draw(st.sampled_from(["uniform", "max", "mixed", "half"]))
    if mode == "max":
        x[...] = P - 1
    elif mode == "mixed":
        x[rng.random(shape) < 0.5] = P - 1
    elif mode == "half":
        x[...] = rng.choice([(P - 1) // 2, (P + 1) // 2], size=shape)
    return x


@st.composite
def weights(draw, shape):
    """Weight residues re-centring into [-w_max, w_max], w_max the bound at
    the fan-in prod(shape[1:]): uniform, all at +-w_max, or a mix."""
    w_max = w_bound(math.prod(shape[1:]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w = rng.integers(-w_max, w_max + 1, size=shape, dtype=np.int64)
    edge = rng.choice([-w_max, w_max], size=shape)
    mode = draw(st.sampled_from(["uniform", "edge", "mixed"]))
    if mode == "edge":
        w = edge
    elif mode == "mixed":
        w = np.where(rng.random(shape) < 0.5, edge, w)
    return w % P


@given(st.data(), st.integers(1, 8), st.integers(1, 300), st.booleans())
@settings(max_examples=200, deadline=None)
def test_matvec_matches_reference(data, rows, cols, with_bias):
    w = data.draw(weights((rows, cols)))
    x = data.draw(residues((cols,)))
    b = data.draw(residues((rows,))) if with_bias else np.zeros(rows, dtype=np.int64)
    got = K.matvec_mod(K.prepare_weights(w), x, b if with_bias else None)
    assert np.array_equal(got, kernel_oracle.matvec_mod(w, x, b, P))


@given(st.data(), st.sampled_from([2**14 - 1, 2**14, 2**14 + 5, 2**15 + 3, 2**17 + 5]))
@settings(max_examples=30, deadline=None)
def test_matvec_at_large_fan_in(data, cols):
    w = data.draw(weights((2, cols)))
    x = data.draw(residues((cols,)))
    b = data.draw(residues((2,)))
    got = K.matvec_mod(K.prepare_weights(w), x, b)
    assert np.array_equal(got, kernel_oracle.matvec_mod(w, x, b, P))


def test_conv_at_large_fan_in():
    # 1821 channels x 3 x 3 = 16389 products per output; weights p - 1
    # re-centre to -1, the others to the largest magnitude the bound admits
    edge = w_bound(1821 * 9)
    for fill in (P - 1, edge, P - edge):
        x = np.full((1821, 4, 3), P - 1, dtype=np.int64)
        w = np.full((2, 1821, 3, 3), fill, dtype=np.int64)
        b = np.full(2, P - 1, dtype=np.int64)
        got = K.conv2d_mod(x, K.prepare_weights(w), b, 1, 0)
        assert np.array_equal(got, kernel_oracle.conv2d_mod(x, w, b, 1, 0, P))


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


@given(st.data(), conv_case(), st.booleans())
@settings(max_examples=200, deadline=None)
def test_conv_matches_reference(data, case, with_bias):
    ci, co, h, ww, k, stride, pad = case
    x = data.draw(residues((ci, h, ww)))
    w = data.draw(weights((co, ci, k, k)))
    b = data.draw(residues((co,))) if with_bias else np.zeros(co, dtype=np.int64)
    got = K.conv2d_mod(x, K.prepare_weights(w), b if with_bias else None, stride, pad)
    assert np.array_equal(got, kernel_oracle.conv2d_mod(x, w, b, stride, pad, P))


@given(st.integers(0, 2**32 - 1), st.integers(1, 2**20), conv_case(), st.integers(1, 4))
@settings(max_examples=200, deadline=None)
def test_oracle_conv_matches_reference(seed, bound, case, n):
    # the oracle convolves a block of n inputs; each must equal the reference
    ci, co, h, ww, k, stride, pad = case
    rng = np.random.default_rng(seed)
    x = rng.integers(-bound, bound + 1, size=(n, ci, h, ww), dtype=np.int64)
    w = rng.integers(-3, 4, size=(co, ci, k, k), dtype=np.int64)
    b = rng.integers(-3, 4, size=co, dtype=np.int64)
    got = oracle._conv(x, w, b, stride, pad, bound, "conv")
    assert got.dtype == np.int64
    for xi, gi in zip(x, got):
        assert np.array_equal(gi, kernel_oracle.conv_plain(xi, w, b, stride, pad))


def _unbatched_stack(kernel, xs, batch, x_ndim):
    """kernel on each input of the batch xs in turn, stacked back to batch."""
    outs = [kernel(x) for x in xs.reshape(-1, *xs.shape[xs.ndim - x_ndim:])]
    return np.stack(outs).reshape(*batch, *outs[0].shape)


BATCHES = st.lists(st.integers(1, 3), max_size=2).map(tuple)


@given(st.data(), st.booleans(), BATCHES, st.integers(1, 300))
@settings(max_examples=200, deadline=None)
def test_a_batch_equals_the_stack_of_its_unbatched_calls(data, conv, batch, group_cols):
    # conv groups of any width, down to one image a product
    if conv:
        ci, co, h, ww, k, stride, pad = data.draw(conv_case())
        w = data.draw(weights((co, ci, k, k)))
        x_shape = (ci, h, ww)
    else:
        w = data.draw(weights((data.draw(st.integers(1, 8)), data.draw(st.integers(1, 300)))))
        x_shape = w.shape[1:]
    b = data.draw(st.one_of(st.none(), residues(w.shape[:1])))
    prepared = K.prepare_weights(w)
    if conv:
        def kernel(x):
            return K.conv2d_mod(x, prepared, b, stride, pad)
    else:
        def kernel(x):
            return K.matvec_mod(prepared, x, b)
    xs = data.draw(residues(batch + x_shape))
    with mock.patch.object(K, "_CONV_COLS", group_cols):
        got = kernel(xs)
    want = _unbatched_stack(kernel, xs, batch, len(x_shape))
    assert got.dtype == want.dtype == np.int64
    assert got.shape == want.shape and np.array_equal(got, want)


@given(st.data(), st.sampled_from([2**14 + 5, 2**17 + 5]), st.integers(2, 3))
@settings(max_examples=10, deadline=None)
def test_a_batched_matvec_at_large_fan_in(data, cols, n):
    w = data.draw(weights((2, cols)))
    xs = data.draw(residues((n, cols)))
    b = data.draw(residues((2,)))
    prepared = K.prepare_weights(w)
    want = _unbatched_stack(lambda x: K.matvec_mod(prepared, x, b), xs, (n,), 1)
    assert np.array_equal(K.matvec_mod(prepared, xs, b), want)


def test_a_batched_conv_at_large_fan_in():
    # test_conv_at_large_fan_in's 16389-product rows at the largest admitted
    # weight, two images a batch, one image a product and both in one
    xs = np.full((2, 1821, 4, 3), P - 1, dtype=np.int64)
    xs[1, :, 1] = (P - 1) // 2
    w = K.prepare_weights(np.full((2, 1821, 3, 3), w_bound(1821 * 9), dtype=np.int64))
    b = np.full(2, P - 1, dtype=np.int64)
    want = _unbatched_stack(lambda x: K.conv2d_mod(x, w, b, 1, 0), xs, (2,), 3)
    for group_cols in (1, 4):
        with mock.patch.object(K, "_CONV_COLS", group_cols):
            assert np.array_equal(K.conv2d_mod(xs, w, b, 1, 0), want)


@st.composite
def pool_case(draw):
    window = draw(st.integers(1, 3))
    stride = draw(st.integers(1, window))
    h, w = draw(st.integers(window, window + 6)), draw(st.integers(window, window + 6))
    return draw(st.integers(1, 3)), h, w, window, stride


@given(st.data(), pool_case(), BATCHES)
@settings(max_examples=100, deadline=None)
def test_batched_pool_and_relu_equal_their_unbatched_calls(data, case, batch):
    c, h, ww, window, stride = case
    xs = data.draw(residues(batch + (c, h, ww)))
    got = K.sumpool_mod(xs, window, stride)
    want = _unbatched_stack(lambda x: K.sumpool_mod(x, window, stride), xs, batch, 3)
    assert got.shape == want.shape and np.array_equal(got, want)
    a, b, r = (data.draw(residues(batch + (c * h * ww,))) for _ in range(3))
    got = K.relu_remask_mod(a, b, r)
    want = np.stack([K.relu_remask_mod(ai, bi, ri) for ai, bi, ri in
                     zip(a.reshape(-1, c * h * ww), b.reshape(-1, c * h * ww),
                         r.reshape(-1, c * h * ww))]).reshape(got.shape)
    assert np.array_equal(got, want)
