"""Independent plaintext reference for protocol verification.

Walks the layer list directly over a block of inputs of shape
(n, c, h, w), with plain numpy ops: no field arithmetic, no share
plumbing, no lowered DAG. One input is a block of one. Average pooling
is window-sum pooling (a scaled average) to stay in exact integers, the
same semantic the masked path uses. Raises FieldOverflowRisk the moment
any intermediate of any input in the block leaves the signed field
window, since beyond that point masked reconstruction is no longer
faithful.

Each conv and FC is a float64 product over the whole block, which runs
on BLAS where numpy's int64 products do not. It is exact. With integer
weights |w| <= w_max, inputs |x| <= x_max and fan-in K, every term and
every partial sum of any subset of the K terms of an output is an integer
of magnitude at most w_max * x_max * K, and doubles hold every integer
below 2**53 exactly, so each multiply and add returns the exact integer
in whatever order BLAS sums (Dumas, Giorgi & Pernet, FFLAS-FFPACK, ACM
TOMS 2008). x_max is the peak the bound check on the layer's input
measured. Before each product a guard requires w_max * x_max * K < 2**53
and raises FieldOverflowRisk otherwise, so the oracle never returns an
inexact value.

The oracle shares no code with the field kernels in `pisim._kernels`: it
takes the signed integer weights as drawn, not PreparedWeights, and
computes over the integers with no reduction mod p, so an error in the
kernels cannot cancel out in the comparison. The per-input int64 walk it
replaced is kept as the tests' reference in `tests/protocol_oracle.py`.
"""

from __future__ import annotations

import numpy as np

from ..field import HALF_RANGE, FieldOverflowRisk
from ..netarch import AvgPool, Conv, FC, Flatten, NetworkArch, ReLU
from ..netarch.shapes import pool_window

# doubles hold every integer of magnitude below this exactly
_EXACT = 1 << 53
# FC weight rows converted to float64 at a time: a whole-matrix copy would
# add the matrix's size to the peak memory of a verify run
_FC_ROWS = 8


def _peak(x: np.ndarray) -> int:
    """max|x|, without the transient copy np.abs would allocate."""
    return max(int(x.max()), -int(x.min())) if x.size else 0


def _check_exact(w: np.ndarray, x_peak: int, fan_in: int, where: str) -> None:
    w_peak = _peak(w)
    if w_peak * x_peak * fan_in >= _EXACT:
        raise FieldOverflowRisk(
            f"{where}: max|w| {w_peak} * max|x| {x_peak} * fan-in {fan_in} "
            "reaches 2**53; the float64 product would not be exact"
        )


def _conv(x, w, b, stride: int, pad: int, x_peak: int, where: str) -> np.ndarray:
    """Convolve a block x (n, ci, h, w) exactly; (n, co, oh, ow) int64.

    The padded block is laid out as one row per input channel, so kernel
    offset (ky, kx) contributes to every output position of every input
    through one (co, ci) @ (ci, L) product with a shifted slice of it.
    Positions that straddle a row or an image edge, or that the stride
    skips, are computed and dropped.
    """
    co, ci, kh, kw = w.shape
    _check_exact(w, x_peak, ci * kh * kw, where)
    n, _, h, wd = x.shape
    hp, wp = h + 2 * pad, wd + 2 * pad
    size = n * hp * wp
    flat = np.zeros((ci, size + (kh - 1) * wp + kw - 1))
    padded = flat[:, :size].reshape(ci, n, hp, wp)
    padded[:, :, pad : pad + h, pad : pad + wd] = x.transpose(1, 0, 2, 3)
    wf = w.astype(np.float64)
    acc = np.zeros((co, size))
    term = np.empty_like(acc)
    for ky in range(kh):
        for kx in range(kw):
            start = ky * wp + kx
            np.matmul(wf[:, :, ky, kx], flat[:, start : start + size], out=term)
            acc += term
    del flat, padded, term  # freed before the output is allocated
    out = np.empty((n, co, (hp - kh) // stride + 1, (wp - kw) // stride + 1), dtype=np.int64)
    valid = acc.reshape(co, n, hp, wp)[:, :, : hp - kh + 1 : stride, : wp - kw + 1 : stride]
    out.transpose(1, 0, 2, 3)[...] = valid
    out += b[:, None, None]
    return out


def _fc(x: np.ndarray, w: np.ndarray, b: np.ndarray, x_peak: int, where: str) -> np.ndarray:
    """x (n, K) @ w.T exactly, plus b; (n, o) int64."""
    _check_exact(w, x_peak, w.shape[1], where)
    xf = x.astype(np.float64)
    out = np.empty((len(x), len(w)))
    for r in range(0, len(w), _FC_ROWS):
        out[:, r : r + _FC_ROWS] = xf @ w[r : r + _FC_ROWS].T.astype(np.float64)
    return out.astype(np.int64) + b


def _pool_plain(x: np.ndarray, window: int, stride: int) -> np.ndarray:
    n, c, h, w = x.shape
    oh = (h - window) // stride + 1
    ow = (w - window) // stride + 1
    out = np.zeros((n, c, oh, ow), dtype=np.int64)
    for ky in range(window):
        for kx in range(window):
            out += x[:, :, ky : ky + oh * stride : stride, kx : kx + ow * stride : stride]
    return out


def _check_bound(x: np.ndarray, where: str) -> int:
    """max|x| over the block; raises once it leaves the signed field window."""
    peak = _peak(x)
    if peak > HALF_RANGE:
        raise FieldOverflowRisk(
            f"{where}: |value| {peak} exceeds the signed field window "
            f"{HALF_RANGE}; results would wrap"
        )
    return peak


def plaintext_forward(
    arch: NetworkArch,
    weights: dict,
    x: np.ndarray,
    trace: dict[int, np.ndarray] | None = None,
) -> np.ndarray:
    """Exact integer logits, (n, classes), for a block x of n inputs.

    When trace is a dict it receives the pre-activation block of the
    j-th ReLU (in layer order) under key j.
    """
    x = np.asarray(x, dtype=np.int64)
    peak = _check_bound(x, "input")
    sources = {skip.source for skip in arch.skips}
    outputs = {-1: (x, peak)}
    skips_at = {}
    for i, skip in enumerate(arch.skips):
        skips_at.setdefault(skip.merge, []).append((i, skip))

    relu_ordinal = 0
    cur = x
    for idx, layer in enumerate(arch.layers):
        where = f"layer {idx} ({layer.kind})"
        if isinstance(layer, Conv):
            w, b = weights[idx]
            cur = _conv(cur, w, b, layer.stride, layer.padding, peak, where)
        elif isinstance(layer, FC):
            w, b = weights[idx]
            cur = _fc(cur, w, b, peak, where)
        elif isinstance(layer, ReLU):
            if trace is not None:
                trace[relu_ordinal] = cur.copy()
            relu_ordinal += 1
            cur = np.maximum(cur, 0)
        elif isinstance(layer, AvgPool):
            cur = _pool_plain(cur, *pool_window(layer, cur.shape[1:]))
        elif isinstance(layer, Flatten):
            cur = cur.reshape(len(cur), -1)
        for i, skip in skips_at.get(idx, []):
            src, src_peak = outputs[skip.source]
            if skip.conv is not None:
                w, b = weights[("skip", i)]
                conv, into = skip.conv, f"skip {i} into {where}"
                src = _conv(src, w, b, conv.stride, conv.padding, src_peak, into)
            cur = cur + src
        peak = _check_bound(cur, where)
        if idx in sources:
            outputs[idx] = (cur, peak)
    return cur
