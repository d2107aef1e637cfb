"""Modular-arithmetic kernels for the protocol executors, in numpy.

All kernels operate on int64 arrays with entries in [0, p) for a modulus
p < 2**31.5 (p**2 must fit in int64).

The conv and matvec share one matrix product, `_matmul_mod`, which runs
on float64 BLAS and is exact. The weights are prepared once
(`prepare_weights`): re-centred to (-p/2, p/2], so |w| <= (p-1)/2, and
stored as float64, which holds every such integer exactly. The input is
split into limbs of `limb_bits` bits, so each limb is below 2**limb_bits,
and each product sums `chunk` columns. The plan is chosen from the
measured max|w| so that

    max|w| * (2**limb_bits - 1) * chunk < 2**53.

Every term w*x_limb is then an integer whose magnitude is below 2**53,
and so is every partial sum of any subset of the terms. Doubles represent
all integers below 2**53 exactly, so each multiply, add or fused
multiply-add in the product returns the exact integer, whatever order or
blocking BLAS uses. The sums are converted to int64, reduced mod p, and
the limbs recombined with the constants 2**(j*limb_bits) mod p, each
product below p**2 < 2**63.

Small weights, such as the test networks' [-3, 3], give one limb of the
whole input width and one chunk: a single dgemm per product.

The linear kernels take inputs with zero or more leading batch
dimensions, numpy style; a batch adds columns to the product, not
products. An unbatched call returns what one input of a batch would.
"""

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# doubles hold every integer of magnitude below this exactly
_EXACT = 1 << 53
# Output positions per conv product. A batch's images are convolved in
# groups, so its im2col copy (kh*kw*ci float64 rows) is at most this wide.
# On `verify --trials 100` (toy_cnn, cifar100, blocks of 4), caps of 1024,
# 2048 and 4096 gave a peak RSS of 46.5, 46.2 and 47.1 MB (medians of 3 to
# 6 runs; 46.1 MB with one bundle per run) at equal CPU.
_CONV_COLS = 2048


def limb_plan(w_max: int, k: int, p: int) -> tuple[int, int]:
    """(limb_bits, chunk) for products of k columns of weights with |w| <= w_max.

    The widest limb for which whole rows sum below 2**53, so one chunk of
    k columns. Only when not even 1-bit limbs allow that (w_max * k >=
    2**53, beyond 2**22 columns at the largest weights) are the rows
    summed in chunks, of the longest length 1-bit limbs allow.
    """
    bits = (p - 1).bit_length()
    for limb_bits in range(bits, 0, -1):
        if w_max * ((1 << limb_bits) - 1) * k < _EXACT:
            return limb_bits, k
    return 1, (_EXACT - 1) // w_max


@dataclass(frozen=True, eq=False)
class PreparedWeights:
    """A weight tensor in Z_p, prepared once for exact float64 products.

    `matrix` is the tensor flattened to (o, K), re-centred to (-p/2, p/2]
    and read-only; `shape` is the tensor's own shape. The plan
    (`limb_bits`, `chunk`) satisfies the bound in the module docstring.
    """

    shape: tuple[int, ...]
    p: int
    matrix: np.ndarray
    limb_bits: int
    chunk: int

    @property
    def limbs(self) -> int:
        """How many limbs an input residue splits into."""
        return -(-(self.p - 1).bit_length() // self.limb_bits)


def prepare_weights(w: np.ndarray, p: int) -> PreparedWeights:
    """Prepare integer weights w (|w| < 2**53), taken mod p, for conv2d_mod/matvec_mod."""
    matrix = w.reshape(w.shape[0], -1).astype(np.float64)
    np.remainder(matrix, p, out=matrix)
    matrix[matrix > (p - 1) // 2] -= p
    w_max = int(max(matrix.max(initial=0), -matrix.min(initial=0)))
    matrix.setflags(write=False)
    limb_bits, chunk = limb_plan(w_max, matrix.shape[1], p)
    return PreparedWeights(tuple(w.shape), p, matrix, limb_bits, chunk)


def _limbs(x: np.ndarray, w: PreparedWeights) -> np.ndarray:
    """x's base-2**limb_bits digits, stacked on a new leading axis."""
    if w.limbs == 1:
        return x[None]
    shifts = np.arange(0, w.limbs * w.limb_bits, w.limb_bits)
    return (x[None] >> shifts.reshape((-1,) + (1,) * x.ndim)) & ((1 << w.limb_bits) - 1)


def _matmul_mod(w: PreparedWeights, cols: np.ndarray, b: np.ndarray | None) -> np.ndarray:
    """(w @ x + b) mod p, exactly, from x's limbs cols: (limbs, K, n) float64.

    b: (o, 1), or None for no bias. Sums stay unreduced while they fit: a
    chunk's sum is below 2**53, a reduced one below p, and a reduced limb
    times its constant below p**2.
    """
    p, m = w.p, w.matrix
    acc = None
    for start in range(0, m.shape[1], w.chunk):
        stop = start + w.chunk
        part = (m[:, start:stop] @ cols[:, start:stop]).astype(np.int64)
        acc = part if acc is None else acc % p + part
    out = acc[0] if b is None else acc[0] + b
    for j in range(1, w.limbs):
        out = out % p + acc[j] % p * pow(2, j * w.limb_bits, p)
    return out % p


def _conv_product(xs, w: PreparedWeights, b, stride, pad, oh, ow) -> np.ndarray:
    """(co, n*oh*ow) convolution of the images xs (n, ci, h, w) as one product."""
    co, ci, kh, kw = w.shape
    n, _, h, ww = xs.shape
    xp = np.zeros((w.limbs, n, ci, h + 2 * pad, ww + 2 * pad))
    xp[..., pad : pad + h, pad : pad + ww] = _limbs(xs, w)
    win = sliding_window_view(xp, (kh, kw), axis=(3, 4))[:, :, :, ::stride, ::stride]
    cols = win.transpose(0, 2, 5, 6, 1, 3, 4).reshape(w.limbs, ci * kh * kw, n * oh * ow)
    return _matmul_mod(w, cols, None if b is None else b[:, None])


def conv2d_mod(x, w: PreparedWeights, b, stride, pad):
    """2D convolution mod w.p. x: batch + (ci,h,w), w: prepared (co,ci,kh,kw),
    b: (co,) or None; returns batch + (co,oh,ow).

    The images of a batch are the columns of one product, in groups of at
    most _CONV_COLS output positions (at least one image a group).
    """
    co, ci, kh, kw = w.shape
    *batch, _, h, ww = x.shape
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (ww + 2 * pad - kw) // stride + 1
    xs = x.reshape(-1, ci, h, ww)
    out = np.empty((len(xs), co, oh, ow), dtype=np.int64)
    group = max(1, _CONV_COLS // (oh * ow))
    for start in range(0, len(xs), group):
        part = xs[start : start + group]
        prod = _conv_product(part, w, b, stride, pad, oh, ow)
        out[start : start + len(part)] = prod.reshape(co, -1, oh, ow).transpose(1, 0, 2, 3)
    return out.reshape(*batch, co, oh, ow)


def matvec_mod(w: PreparedWeights, x, b):
    """Matrix-vector product mod w.p. w: prepared (o,i), x: batch + (i,),
    b: (o,) or None; returns batch + (o,). The vectors are the columns of
    one product."""
    cols = _limbs(x.reshape(-1, x.shape[-1]).T, w).astype(np.float64)
    out = _matmul_mod(w, cols, None if b is None else b[:, None])
    return out.T.reshape(*x.shape[:-1], w.shape[0])


def sumpool_mod(x, window, stride, p):
    """Window-sum pooling mod p. x: batch + (c,h,w)."""
    *lead, h, ww = x.shape
    oh = (h - window) // stride + 1
    ow = (ww - window) // stride + 1
    acc = np.zeros((*lead, oh, ow), dtype=np.int64)
    for ky in range(window):
        for kx in range(window):
            acc += x[..., ky : ky + oh * stride : stride, kx : kx + ow * stride : stride]
    return acc % p


def relu_remask_mod(a, b, r, p):
    """ReLU gadget on share arrays of one shape: relu(signed(a+b)) - r, mod p.

    Values above (p-1)//2 decode as negative. Output is the re-masked
    share handed to the next linear layer.
    """
    y = a + b
    y %= p
    y[y > (p - 1) // 2] = 0  # negative values: relu gives 0
    y -= r
    y %= p
    return y
