"""The linear kernels against the loop references in kernel_oracle.

The numpy field kernels and the plaintext oracle's block convolution must equal
the references exactly, for every modulus the kernels admit: the default
Mersenne prime and the largest prime whose square fits in int64, with a
bias and without one (b=None). The field kernels take weights prepared by
`prepare_weights`, whose limb and chunk plan must keep every partial sum
of the float64 product below 2**53. A kernel given a batch of inputs must
return, bit for bit, the stack of its calls on each input alone.
"""

import dataclasses
from unittest import mock

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import kernel_oracle
from pisim import _kernels as K
from pisim.field import FIELD_MODULUS
from pisim.protocol import oracle

# largest prime p with p**2 < 2**63, the top of the kernels' range
P_MAX = 3_037_000_493
MODULI = st.sampled_from([FIELD_MODULUS, P_MAX])


@st.composite
def residues(draw, shape, p):
    """Field elements in [0, p): uniform, all p - 1, a mix of the two, or
    the two residues (p -+ 1) / 2 that re-centre to the largest magnitude."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.integers(0, p, size=shape, dtype=np.int64)
    mode = draw(st.sampled_from(["uniform", "max", "mixed", "half"]))
    if mode == "max":
        x[...] = p - 1
    elif mode == "mixed":
        x[rng.random(shape) < 0.5] = p - 1
    elif mode == "half":
        x[...] = rng.choice([(p - 1) // 2, (p + 1) // 2], size=shape)
    return x


@given(st.data(), MODULI, st.integers(1, 8), st.integers(1, 300), st.booleans())
@settings(max_examples=200, deadline=None)
def test_matvec_matches_reference(data, p, rows, cols, with_bias):
    w = data.draw(residues((rows, cols), p))
    x = data.draw(residues((cols,), p))
    b = data.draw(residues((rows,), p)) if with_bias else np.zeros(rows, dtype=np.int64)
    got = K.matvec_mod(K.prepare_weights(w, p), x, b if with_bias else None)
    assert np.array_equal(got, kernel_oracle.matvec_mod(w, x, b, p))


# 2**17 + 5 columns of p - 1 overflowed int64 unless partial sums were
# reduced chunk by chunk; at the largest weights they need several limbs
@given(st.data(), MODULI, st.sampled_from([2**14 - 1, 2**14, 2**14 + 5, 2**15 + 3, 2**17 + 5]))
@settings(max_examples=30, deadline=None)
def test_matvec_across_the_chunk_boundary(data, p, cols):
    w = data.draw(residues((2, cols), p))
    x = data.draw(residues((cols,), p))
    b = data.draw(residues((2,), p))
    got = K.matvec_mod(K.prepare_weights(w, p), x, b)
    assert np.array_equal(got, kernel_oracle.matvec_mod(w, x, b, p))


def test_conv_across_the_chunk_boundary():
    # 1821 channels x 3 x 3 = 16389 products per output, just past 2**14;
    # weights p - 1 re-centre to -1, weights (p - 1) / 2 to the largest magnitude
    for p in (FIELD_MODULUS, P_MAX):
        for fill in (p - 1, (p - 1) // 2):
            x = np.full((1821, 4, 3), p - 1, dtype=np.int64)
            w = np.full((2, 1821, 3, 3), fill, dtype=np.int64)
            b = np.full(2, p - 1, dtype=np.int64)
            got = K.conv2d_mod(x, K.prepare_weights(w, p), b, 1, 0)
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


@given(st.data(), MODULI, conv_case(), st.booleans())
@settings(max_examples=200, deadline=None)
def test_conv_matches_reference(data, p, case, with_bias):
    ci, co, h, ww, k, stride, pad = case
    x = data.draw(residues((ci, h, ww), p))
    w = data.draw(residues((co, ci, k, k), p))
    b = data.draw(residues((co,), p)) if with_bias else np.zeros(co, dtype=np.int64)
    got = K.conv2d_mod(x, K.prepare_weights(w, p), b if with_bias else None, stride, pad)
    assert np.array_equal(got, kernel_oracle.conv2d_mod(x, w, b, stride, pad, p))


@given(MODULI, st.data())
@settings(max_examples=300)
def test_plan_keeps_every_partial_sum_below_2_53(p, data):
    w_max = data.draw(st.integers(0, (p - 1) // 2))
    k = data.draw(st.integers(1, 2**26))
    bits = (p - 1).bit_length()
    limb_bits, chunk = K.limb_plan(w_max, k, p)
    assert 1 <= limb_bits <= bits and 1 <= chunk <= k
    assert w_max * ((1 << limb_bits) - 1) * chunk < 2**53
    # no narrower limb or shorter chunk than the bound needs
    if limb_bits < bits:
        assert w_max * ((1 << limb_bits + 1) - 1) * chunk >= 2**53
    if chunk < k:
        assert limb_bits == 1 and w_max * (chunk + 1) >= 2**53


@given(st.data(), MODULI, st.booleans(), st.integers(1, 32))
@settings(max_examples=200, deadline=None)
def test_kernels_are_exact_under_any_plan_within_the_bound(data, p, conv, limb_bits):
    # narrower limbs and shorter chunks than the measured weights need
    # take the recombination and chunk paths
    if conv:
        ci, co, h, ww, k, stride, pad = data.draw(conv_case())
        w = data.draw(residues((co, ci, k, k), p))
        x = data.draw(residues((ci, h, ww), p))
    else:
        w = data.draw(residues((data.draw(st.integers(1, 8)), data.draw(st.integers(1, 300))), p))
        x = data.draw(residues(w.shape[1:], p))
    b = data.draw(residues(w.shape[:1], p))
    prepared = K.prepare_weights(w, p)
    limb_bits = min(limb_bits, (p - 1).bit_length())
    w_max = int(np.abs(prepared.matrix).max())
    longest = (2**53 - 1) // max(1, w_max * ((1 << limb_bits) - 1))
    assume(longest >= 1)
    chunk = data.draw(st.integers(1, min(longest, prepared.matrix.shape[1])))
    plan = dataclasses.replace(prepared, limb_bits=limb_bits, chunk=chunk)
    if conv:
        got = K.conv2d_mod(x, plan, b, stride, pad)
        want = kernel_oracle.conv2d_mod(x, w, b, stride, pad, p)
    else:
        got = K.matvec_mod(plan, x, b)
        want = kernel_oracle.matvec_mod(w, x, b, p)
    assert np.array_equal(got, want)


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


@given(st.data(), MODULI, st.booleans(), st.integers(1, 32), BATCHES, st.integers(1, 300))
@settings(max_examples=200, deadline=None)
def test_a_batch_equals_the_stack_of_its_unbatched_calls(data, p, conv, limb_bits, batch,
                                                        group_cols):
    # the plans of test_kernels_are_exact_under_any_plan_within_the_bound,
    # and conv groups of any width, down to one image a product
    if conv:
        ci, co, h, ww, k, stride, pad = data.draw(conv_case())
        w = data.draw(residues((co, ci, k, k), p))
        x_shape = (ci, h, ww)
    else:
        w = data.draw(residues((data.draw(st.integers(1, 8)), data.draw(st.integers(1, 300))), p))
        x_shape = w.shape[1:]
    b = data.draw(st.one_of(st.none(), residues(w.shape[:1], p)))
    prepared = K.prepare_weights(w, p)
    limb_bits = min(limb_bits, (p - 1).bit_length())
    w_max = int(np.abs(prepared.matrix).max())
    longest = (2**53 - 1) // max(1, w_max * ((1 << limb_bits) - 1))
    assume(longest >= 1)
    chunk = data.draw(st.integers(1, min(longest, prepared.matrix.shape[1])))
    plan = dataclasses.replace(prepared, limb_bits=limb_bits, chunk=chunk)
    if conv:
        def kernel(x):
            return K.conv2d_mod(x, plan, b, stride, pad)
    else:
        def kernel(x):
            return K.matvec_mod(plan, x, b)
    xs = data.draw(residues(batch + x_shape, p))
    with mock.patch.object(K, "_CONV_COLS", group_cols):
        got = kernel(xs)
    want = _unbatched_stack(kernel, xs, batch, len(x_shape))
    assert got.dtype == want.dtype == np.int64
    assert got.shape == want.shape and np.array_equal(got, want)


@given(st.data(), MODULI, st.sampled_from([2**14 + 5, 2**17 + 5]), st.integers(2, 3))
@settings(max_examples=10, deadline=None)
def test_a_batched_matvec_across_the_chunk_boundary(data, p, cols, n):
    w = data.draw(residues((2, cols), p))
    xs = data.draw(residues((n, cols), p))
    b = data.draw(residues((2,), p))
    prepared = K.prepare_weights(w, p)
    want = _unbatched_stack(lambda x: K.matvec_mod(prepared, x, b), xs, (n,), 1)
    assert np.array_equal(K.matvec_mod(prepared, xs, b), want)


def test_a_batched_conv_across_the_chunk_boundary():
    # test_conv_across_the_chunk_boundary's 16389-product rows, two images a
    # batch, one image a product and both in one
    for p in (FIELD_MODULUS, P_MAX):
        xs = np.full((2, 1821, 4, 3), p - 1, dtype=np.int64)
        xs[1, :, 1] = (p - 1) // 2
        w = K.prepare_weights(np.full((2, 1821, 3, 3), (p - 1) // 2, dtype=np.int64), p)
        b = np.full(2, p - 1, dtype=np.int64)
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


@given(st.data(), MODULI, pool_case(), BATCHES)
@settings(max_examples=100, deadline=None)
def test_batched_pool_and_relu_equal_their_unbatched_calls(data, p, case, batch):
    c, h, ww, window, stride = case
    xs = data.draw(residues(batch + (c, h, ww), p))
    got = K.sumpool_mod(xs, window, stride, p)
    want = _unbatched_stack(lambda x: K.sumpool_mod(x, window, stride, p), xs, batch, 3)
    assert got.shape == want.shape and np.array_equal(got, want)
    a, b, r = (data.draw(residues(batch + (c * h * ww,), p)) for _ in range(3))
    got = K.relu_remask_mod(a, b, r, p)
    want = np.stack([K.relu_remask_mod(ai, bi, ri, p) for ai, bi, ri in
                     zip(a.reshape(-1, c * h * ww), b.reshape(-1, c * h * ww),
                         r.reshape(-1, c * h * ww))]).reshape(got.shape)
    assert np.array_equal(got, want)
