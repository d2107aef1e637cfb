"""Reference linear kernels for the equivalence tests.

These are the original loop-structured versions: the field kernels reduce
every product mod p before accumulating, and the plaintext convolution
takes one `np.tensordot` per output pixel. `pisim._kernels` and
`pisim.protocol.oracle` must match them exactly.
"""

from __future__ import annotations

import numpy as np


def conv2d_mod(x, w, b, stride, pad, p):
    """2D convolution mod p. x: (ci,h,w), w: (co,ci,kh,kw), b: (co,)."""
    ci, h, ww = x.shape
    co, _, kh, kw = w.shape
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (ww + 2 * pad - kw) // stride + 1
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad))) if pad else x
    acc = np.zeros((co, oh, ow), dtype=np.int64)
    for ky in range(kh):
        for kx in range(kw):
            patch = xp[:, ky : ky + oh * stride : stride, kx : kx + ow * stride : stride]
            # products < p**2 fit in int64; reduced before the channel sum
            prod = (w[:, :, ky, kx, None, None] * patch[None, :, :, :]) % p
            acc += prod.sum(axis=1)
    return (acc + b[:, None, None]) % p


def matvec_mod(w, x, b, p):
    """Matrix-vector product mod p. w: (o,i), x: (i,), b: (o,)."""
    prod = (w * x[None, :]) % p
    return (prod.sum(axis=1) + b) % p


def conv_plain(x, w, b, stride, pad):
    """Signed integer convolution, one output pixel at a time."""
    ci, h, ww = x.shape
    co, _, kh, kw = w.shape
    if pad:
        x = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (ww + 2 * pad - kw) // stride + 1
    out = np.empty((co, oh, ow), dtype=np.int64)
    for oy in range(oh):
        for ox in range(ow):
            patch = x[:, oy * stride : oy * stride + kh, ox * stride : ox * stride + kw]
            out[:, oy, ox] = np.tensordot(w, patch, axes=([1, 2, 3], [0, 1, 2]))
    return out + b[:, None, None]
