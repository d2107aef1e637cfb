"""Modular-arithmetic kernels for the protocol executors.

All kernels operate on int64 arrays with entries in [0, p) for a modulus
p < 2**31.5 (p**2 must fit in int64). Each kernel has a numba version and
a pure-numpy version with identical results; the public names bind to
whichever backend _backend selected.

The numba loops reduce every product before accumulating. The numpy conv
and matvec instead share one integer matrix product, `_matmul_mod`: it
splits the right operand into 16-bit limbs, so each product is below
2**47.5, and sums at most 2**14 of them before reducing mod p, so no
partial sum reaches 2**63.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ._backend import JIT_OPTIONS, USE_NUMBA, njit

# ---------------------------------------------------------------- numpy

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


def conv2d_mod_numpy(x, w, b, stride, pad, p):
    """2D convolution mod p. x: (ci,h,w), w: (co,ci,kh,kw), b: (co,)."""
    co, ci, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad))) if pad else x
    win = sliding_window_view(xp, (kh, kw), axis=(1, 2))[:, ::stride, ::stride]
    _, oh, ow, _, _ = win.shape
    cols = win.transpose(0, 3, 4, 1, 2).reshape(ci * kh * kw, oh * ow)
    out = _matmul_mod(w.reshape(co, -1), cols, p).reshape(co, oh, ow)
    return (out + b[:, None, None]) % p


def matvec_mod_numpy(w, x, b, p):
    """Matrix-vector product mod p. w: (o,i), x: (i,), b: (o,)."""
    return (_matmul_mod(w, x, p) + b) % p


def sumpool_mod_numpy(x, window, stride, p):
    """Window-sum pooling mod p. x: (c,h,w)."""
    c, h, ww = x.shape
    oh = (h - window) // stride + 1
    ow = (ww - window) // stride + 1
    acc = np.zeros((c, oh, ow), dtype=np.int64)
    for ky in range(window):
        for kx in range(window):
            acc += x[:, ky : ky + oh * stride : stride, kx : kx + ow * stride : stride]
    return acc % p


def relu_remask_mod_numpy(a, b, r, p):
    """ReLU gadget on flat share arrays: relu(signed(a+b)) - r, mod p.

    Values above (p-1)//2 decode as negative. Output is the re-masked
    share handed to the next linear layer.
    """
    x = (a + b) % p
    half = (p - 1) // 2
    signed = np.where(x > half, x - p, x)
    y = np.maximum(signed, 0)
    return (y - r) % p


# ---------------------------------------------------------------- numba


@njit(**JIT_OPTIONS)
def conv2d_mod_numba(x, w, b, stride, pad, p):  # pragma: no cover - jitted
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


@njit(**JIT_OPTIONS)
def matvec_mod_numba(w, x, b, p):  # pragma: no cover - jitted
    o, i = w.shape
    out = np.empty(o, dtype=np.int64)
    for row in range(o):
        acc = b[row]
        for col in range(i):
            acc += (w[row, col] * x[col]) % p
        out[row] = acc % p
    return out


@njit(**JIT_OPTIONS)
def sumpool_mod_numba(x, window, stride, p):  # pragma: no cover - jitted
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


@njit(**JIT_OPTIONS)
def relu_remask_mod_numba(a, b, r, p):  # pragma: no cover - jitted
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


if USE_NUMBA:
    conv2d_mod = conv2d_mod_numba
    matvec_mod = matvec_mod_numba
    sumpool_mod = sumpool_mod_numba
    relu_remask_mod = relu_remask_mod_numba
else:
    conv2d_mod = conv2d_mod_numpy
    matvec_mod = matvec_mod_numpy
    sumpool_mod = sumpool_mod_numpy
    relu_remask_mod = relu_remask_mod_numpy
