"""Modular-arithmetic kernels for the protocol executors, in numpy.

All kernels operate on int64 arrays with entries in [0, p) for a modulus
p < 2**31.5 (p**2 must fit in int64).

The conv and matvec share one integer matrix product, `_matmul_mod`: it
splits the right operand into 16-bit limbs, so each product is below
2**47.5, and sums at most 2**14 of them before reducing mod p, so no
partial sum reaches 2**63.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

_LIMB_BITS = 16
_CHUNK = 1 << 14


def _matmul_mod(w, x, p):
    """(w @ x) mod p, exactly. w: (o,i), x: (i,) or (i,n)."""
    x2 = x.reshape(x.shape[0], -1)
    n = x2.shape[1]
    limbs = np.concatenate([x2 & ((1 << _LIMB_BITS) - 1), x2 >> _LIMB_BITS], axis=1)
    acc = np.zeros((w.shape[0], 2 * n), dtype=np.int64)
    for start in range(0, w.shape[1], _CHUNK):
        stop = start + _CHUNK
        acc += w[:, start:stop] @ limbs[start:stop]
        acc %= p
    out = (acc[:, :n] + (acc[:, n:] << _LIMB_BITS)) % p
    return out.reshape(w.shape[:1] + x.shape[1:])


def conv2d_mod(x, w, b, stride, pad, p):
    """2D convolution mod p. x: (ci,h,w), w: (co,ci,kh,kw), b: (co,)."""
    co, ci, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad))) if pad else x
    win = sliding_window_view(xp, (kh, kw), axis=(1, 2))[:, ::stride, ::stride]
    _, oh, ow, _, _ = win.shape
    cols = win.transpose(0, 3, 4, 1, 2).reshape(ci * kh * kw, oh * ow)
    out = _matmul_mod(w.reshape(co, -1), cols, p).reshape(co, oh, ow)
    return (out + b[:, None, None]) % p


def matvec_mod(w, x, b, p):
    """Matrix-vector product mod p. w: (o,i), x: (i,), b: (o,)."""
    return (_matmul_mod(w, x, p) + b) % p


def sumpool_mod(x, window, stride, p):
    """Window-sum pooling mod p. x: (c,h,w)."""
    c, h, ww = x.shape
    oh = (h - window) // stride + 1
    ow = (ww - window) // stride + 1
    acc = np.zeros((c, oh, ow), dtype=np.int64)
    for ky in range(window):
        for kx in range(window):
            acc += x[:, ky : ky + oh * stride : stride, kx : kx + ow * stride : stride]
    return acc % p


def relu_remask_mod(a, b, r, p):
    """ReLU gadget on flat share arrays: relu(signed(a+b)) - r, mod p.

    Values above (p-1)//2 decode as negative. Output is the re-masked
    share handed to the next linear layer.
    """
    x = (a + b) % p
    half = (p - 1) // 2
    signed = np.where(x > half, x - p, x)
    y = np.maximum(signed, 0)
    return (y - r) % p
