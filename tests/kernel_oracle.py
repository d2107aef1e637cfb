"""Reference kernels for the equivalence tests.

These are the original loop-structured versions: the field kernels reduce
every product mod p before accumulating, and the plaintext convolution
takes one `np.tensordot` per output pixel. The `*_loop` kernels go further
and compute one output element per loop iteration; they are slow, so only
small inputs use them. `pisim._kernels` and `pisim.protocol.oracle` must
match all of them exactly.

`conv2d_mod_im2col` is the im2col conv `pisim._kernels.conv2d_mod`
replaced: one product of the prepared weights with a copy of every input
window, over groups of at most `group_cols` output positions, reduced
with int64 `%`.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


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


def conv2d_mod_im2col(x, w, b, stride, pad, p, group_cols=2048):
    """2D convolution mod p. x: batch + (ci,h,w), w: PreparedWeights of
    (co,ci,kh,kw), b: (co,) or None; returns batch + (co,oh,ow)."""
    co, ci, kh, kw = w.shape
    *batch, _, h, ww = x.shape
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (ww + 2 * pad - kw) // stride + 1
    xs = x.reshape(-1, ci, h, ww)
    out = np.empty((len(xs), co, oh, ow), dtype=np.int64)
    group = max(1, group_cols // (oh * ow))
    for start in range(0, len(xs), group):
        part = xs[start : start + group]
        xp = np.zeros((len(part), ci, h + 2 * pad, ww + 2 * pad))
        xp[..., pad : pad + h, pad : pad + ww] = part
        win = sliding_window_view(xp, (kh, kw), axis=(2, 3))[:, :, ::stride, ::stride]
        cols = win.transpose(1, 4, 5, 0, 2, 3).reshape(ci * kh * kw, -1)
        prod = (w.matrix @ cols).astype(np.int64)
        if b is not None:
            prod += b[:, None]
        prod %= p
        out[start : start + len(part)] = prod.reshape(co, -1, oh, ow).transpose(1, 0, 2, 3)
    return out.reshape(*batch, co, oh, ow)


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


def conv2d_mod_loop(x, w, b, stride, pad, p):
    ci, h, ww = x.shape
    co, _, kh, kw = w.shape
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (ww + 2 * pad - kw) // stride + 1
    out = np.empty((co, oh, ow), dtype=np.int64)
    for oc in range(co):
        for oy in range(oh):
            for ox in range(ow):
                acc = b[oc]
                for ic in range(ci):
                    for ky in range(kh):
                        iy = oy * stride - pad + ky
                        if iy < 0 or iy >= h:
                            continue
                        for kx in range(kw):
                            ix = ox * stride - pad + kx
                            if ix < 0 or ix >= ww:
                                continue
                            # acc stays below (ci*kh*kw+1)*p, no overflow
                            acc += (w[oc, ic, ky, kx] * x[ic, iy, ix]) % p
                out[oc, oy, ox] = acc % p
    return out


def matvec_mod_loop(w, x, b, p):
    o, i = w.shape
    out = np.empty(o, dtype=np.int64)
    for row in range(o):
        acc = b[row]
        for col in range(i):
            acc += (w[row, col] * x[col]) % p
        out[row] = acc % p
    return out


def sumpool_mod_loop(x, window, stride, p):
    c, h, ww = x.shape
    oh = (h - window) // stride + 1
    ow = (ww - window) // stride + 1
    out = np.empty((c, oh, ow), dtype=np.int64)
    for ch in range(c):
        for oy in range(oh):
            for ox in range(ow):
                acc = 0
                for ky in range(window):
                    for kx in range(window):
                        acc += x[ch, oy * stride + ky, ox * stride + kx]
                out[ch, oy, ox] = acc % p
    return out


def relu_remask_mod_loop(a, b, r, p):
    n = a.shape[0]
    half = (p - 1) // 2
    out = np.empty(n, dtype=np.int64)
    for i in range(n):
        x = (a[i] + b[i]) % p
        if x > half:
            x -= p
        if x < 0:
            x = 0
        out[i] = (x - r[i]) % p
    return out
