"""Modular-arithmetic kernels for the protocol executors, in numpy.

All kernels operate on int64 arrays with entries in [0, p), p the field
modulus 2**31 - 1 (`pisim.field.FIELD_MODULUS`), and take inputs with
zero or more leading batch dimensions, numpy style: an unbatched call
returns what one input of a batch would.

The conv and matvec are float64 products, which are exact. The weights
are prepared once (`prepare_weights`): re-centred to (-p/2, p/2] and
stored as float64. An input residue is at most p - 1, so with fan-in K
every term w*x of an output, and every partial sum of any subset of its
K terms, is an integer of magnitude at most max|w| * (p - 1) * K, which
`prepare_weights` requires to be below 2**53, raising FieldOverflowRisk
otherwise. Doubles represent all integers below 2**53 exactly, so each
multiply, add or fused multiply-add returns the exact integer, whatever
order or blocking BLAS uses (Dumas, Giorgi & Pernet, FFLAS-FFPACK, ACM
TOMS 2008). Weights in [-3, 3], as the executor draws them, admit
fan-ins up to 1,398,101.

`_mod_p` reduces such a sum s in float64, with no int64 `%`: s * 2**-31
is exact and within |s| / (p * 2**31) < 2**-8 of s/p, so
q = floor(s * 2**-31) is the true quotient or one off it. Then
|q * p| < 2**53, s - q*p is exact and in [-p, 2p), and adding p and two
`reduce_once` folds give [0, p); the bias is added last, with one more
fold. `%` still runs in `sumpool_mod`'s window sums, and in
`pisim.field`'s `decode_signed` and `encode` fallback.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._numpy import np
from .field import FIELD_MODULUS as P, HALF_RANGE, FieldOverflowRisk, reduce_once

# doubles hold every integer of magnitude below this exactly
_EXACT = 1 << 53


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


def _mod_p(s: np.ndarray, b: np.ndarray | None) -> np.ndarray:
    """(s + b) mod p, a new C-ordered int64 array, for float64 integers s
    below 2**53 in magnitude and b in [0, p) or None (see above)."""
    q = np.multiply(s, 2.0**-31, out=np.empty(s.shape))
    np.floor(q, out=q)
    q *= -P
    q += s
    q += P
    out = reduce_once(reduce_once(q.astype(np.int64)))
    if b is not None:
        out += b
        reduce_once(out)
    return out


def conv2d_mod(x, w: PreparedWeights, b, stride, pad):
    """2D convolution mod p. x: batch + (ci,h,w), w: prepared (co,ci,kh,kw),
    b: (co,) or None; returns batch + (co,oh,ow).

    As in `pisim.protocol.oracle`: with the padded batch laid out one row
    per input channel, each kernel offset is one (co, ci) @ (ci, L)
    product with a shifted slice. Positions on a row or image edge, or
    skipped by the stride, are computed and dropped. Each kept sum is a
    subset sum of its output's K terms, so it is exact.
    """
    co, ci, kh, kw = w.shape
    *batch, _, h, wd = x.shape
    xs = x.reshape(-1, ci, h, wd)
    hp, wp = h + 2 * pad, wd + 2 * pad
    size = len(xs) * hp * wp
    flat = np.zeros((ci, size + (kh - 1) * wp + kw - 1))
    padded = flat[:, :size].reshape(ci, len(xs), hp, wp)
    padded[:, :, pad : pad + h, pad : pad + wd] = xs.transpose(1, 0, 2, 3)
    taps = w.matrix.reshape(co, ci, kh * kw).transpose(2, 0, 1).copy()
    acc = taps[0] @ flat[:, :size]
    term = np.empty_like(acc)
    for t in range(1, kh * kw):
        start = t // kw * wp + t % kw
        np.matmul(taps[t], flat[:, start : start + size], out=term)
        acc += term
    del flat, padded, term  # freed before the reduction allocates
    valid = acc.reshape(co, len(xs), hp, wp)[:, :, : hp - kh + 1 : stride, : wp - kw + 1 : stride]
    out = _mod_p(valid.transpose(1, 0, 2, 3), None if b is None else b[:, None, None])
    return out.reshape(*batch, *out.shape[1:])


def matvec_mod(w: PreparedWeights, x, b):
    """Matrix-vector product mod p. w: prepared (o,i), x: batch + (i,),
    b: (o,) or None; returns batch + (o,). The vectors are the rows of
    one product."""
    rows = x.reshape(-1, x.shape[-1]).astype(np.float64)
    return _mod_p(rows @ w.matrix.T, b).reshape(*x.shape[:-1], w.shape[0])


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
