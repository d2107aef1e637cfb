"""Modular-arithmetic kernels for the protocol executors, in numpy.

All kernels operate on int64 arrays with entries in [0, p), p the field
modulus 2**31 - 1 (`pisim.field.FIELD_MODULUS`).

The conv and matvec share one matrix product, `_matmul_mod`: a single
float64 dgemm, which is exact. The weights are prepared once
(`prepare_weights`): re-centred to (-p/2, p/2] and stored as float64,
which holds every such integer exactly. An input residue is at most
p - 1, so with fan-in K every term w*x of an output, and every partial
sum of any subset of its K terms, is an integer of magnitude at most

    max|w| * (p - 1) * K,

and `prepare_weights` requires that to be below 2**53, raising
FieldOverflowRisk otherwise. Doubles represent all integers below 2**53
exactly, so each multiply, add or fused multiply-add in the product
returns the exact integer, whatever order or blocking BLAS uses (Dumas,
Giorgi & Pernet, FFLAS-FFPACK, ACM TOMS 2008). The sums are converted to
int64, the bias added, and the result reduced mod p. Weights in [-3, 3],
as the executor draws them, admit fan-ins up to 1,398,101.

The linear kernels take inputs with zero or more leading batch
dimensions, numpy style; a batch adds columns to the product, not
products. An unbatched call returns what one input of a batch would.

The matrix products and pooling sums reduce with `%`: their sums span far
more than [0, 2p). A Mersenne fold (two shift, mask and add rounds, then
`reduce_once`; seven ufunc calls) was measured to be no faster
(CHANGES.md). The ReLU gadget's two reductions, of a sum of two shares and of
a difference offset by +p, lie in [0, 2p) and take at most one p off
(`pisim.field.reduce_once`).
"""

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .field import FIELD_MODULUS as P, HALF_RANGE, FieldOverflowRisk, reduce_once

# doubles hold every integer of magnitude below this exactly
_EXACT = 1 << 53
# Output positions per conv product. A batch's images are convolved in
# groups, so its im2col copy (kh*kw*ci float64 rows) is at most this wide,
# which bounds peak memory; wider caps were measured to save no CPU
# (CHANGES.md).
_CONV_COLS = 2048


@dataclass(frozen=True, eq=False)
class PreparedWeights:
    """A weight tensor in Z_p, prepared once for exact float64 products.

    `matrix` is the tensor flattened to (o, K), re-centred to (-p/2, p/2]
    and read-only; `shape` is the tensor's own shape.
    """

    shape: tuple[int, ...]
    matrix: np.ndarray


def prepare_weights(w: np.ndarray) -> PreparedWeights:
    """Prepare integer weights w (|w| < 2**53), taken mod p, for conv2d_mod/matvec_mod.

    Raises FieldOverflowRisk unless max|w| * (p - 1) * K < 2**53.
    """
    matrix = w.reshape(w.shape[0], -1).astype(np.float64)
    np.remainder(matrix, P, out=matrix)
    matrix[matrix > HALF_RANGE] -= P
    w_max = int(max(matrix.max(initial=0), -matrix.min(initial=0)))
    fan_in = matrix.shape[1]
    if w_max * (P - 1) * fan_in >= _EXACT:
        raise FieldOverflowRisk(
            f"weights of fan-in {fan_in} and max|w| {w_max}: max|w| * (p - 1) * fan-in "
            "reaches 2**53; the float64 product would not be exact"
        )
    matrix.setflags(write=False)
    return PreparedWeights(tuple(w.shape), matrix)


def _matmul_mod(w: PreparedWeights, cols: np.ndarray, b: np.ndarray | None) -> np.ndarray:
    """(w @ cols + b) mod p, exactly. cols: (K, n) float64; b: (o, 1), or
    None for no bias."""
    out = (w.matrix @ cols).astype(np.int64)
    if b is not None:
        out += b
    out %= P
    return out


def _conv_product(xs, w: PreparedWeights, b, stride, pad, oh, ow) -> np.ndarray:
    """(co, n*oh*ow) convolution of the images xs (n, ci, h, w) as one product."""
    co, ci, kh, kw = w.shape
    n, _, h, ww = xs.shape
    xp = np.zeros((n, ci, h + 2 * pad, ww + 2 * pad))
    xp[..., pad : pad + h, pad : pad + ww] = xs
    win = sliding_window_view(xp, (kh, kw), axis=(2, 3))[:, :, ::stride, ::stride]
    cols = win.transpose(1, 4, 5, 0, 2, 3).reshape(ci * kh * kw, n * oh * ow)
    return _matmul_mod(w, cols, None if b is None else b[:, None])


def conv2d_mod(x, w: PreparedWeights, b, stride, pad):
    """2D convolution mod p. x: batch + (ci,h,w), w: prepared (co,ci,kh,kw),
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
    """Matrix-vector product mod p. w: prepared (o,i), x: batch + (i,),
    b: (o,) or None; returns batch + (o,). The vectors are the columns of
    one product."""
    cols = x.reshape(-1, x.shape[-1]).T.astype(np.float64)
    out = _matmul_mod(w, cols, None if b is None else b[:, None])
    return out.T.reshape(*x.shape[:-1], w.shape[0])


def sumpool_mod(x, window, stride):
    """Window-sum pooling mod p. x: batch + (c,h,w)."""
    *lead, h, ww = x.shape
    oh = (h - window) // stride + 1
    ow = (ww - window) // stride + 1
    acc = np.zeros((*lead, oh, ow), dtype=np.int64)
    for ky in range(window):
        for kx in range(window):
            acc += x[..., ky : ky + oh * stride : stride, kx : kx + ow * stride : stride]
    return acc % P


def relu_remask_mod(a, b, r):
    """ReLU gadget on share arrays of one shape: relu(signed(a+b)) - r, mod p.

    Values above (p-1)//2 decode as negative. Output is the re-masked
    share handed to the next linear layer.
    """
    y = reduce_once(a + b)
    y[y > HALF_RANGE] = 0  # negative values: relu gives 0
    y -= r
    y += P
    return reduce_once(y)
