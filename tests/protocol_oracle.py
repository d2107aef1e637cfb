"""References for the masked executor's draws and the plaintext oracle.

`party_draws` is how each party drew its masks and shares before the
executor drew them as tapes (`pisim.protocol.executor.draw_tapes`): in
the party's own program, from `rngs`, one generator per bundle, in the
order the party needed them, one `sample_elements` call per array.
`tests/test_block_equivalence.py` holds the tapes, each bundle's drawn
by one `pisim.field.seeded_integers` call, bitwise equal to it.

`pisim.protocol.oracle.plaintext_forward` runs a block of inputs at once
on exact float64 products; `plaintext_forward` here is the walk it
replaced, one input of shape (c, h, w) at a time, on numpy int64
products, which need no 2**53 guard. `tests/test_oracle_equivalence.py`
holds the batched oracle bitwise equal to it, input by input.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from pisim.field import FIELD_MODULUS, FieldOverflowRisk
from pisim.netarch import AvgPool, Conv, FC, Flatten, NetworkArch, ReLU, compile_network


def sample_elements(rng: np.random.Generator, shape) -> np.ndarray:
    """Uniform field elements, as the parties drew masks and shares."""
    return rng.integers(0, FIELD_MODULUS, size=shape, dtype=np.int64)


def _draw(rngs, batch: tuple[int, ...], shape) -> np.ndarray:
    """Uniform field elements of shape batch + shape, each bundle's from its
    own generator."""
    out = np.empty((len(rngs), *shape), dtype=np.int64)
    for k, rng in enumerate(rngs):
        out[k] = sample_elements(rng, shape)
    return out.reshape(batch + shape)


def party_draws(arch: NetworkArch, seed: int, nonce) -> tuple[dict, dict]:
    """The client's masks by point index and the server's shares by unit
    id for `nonce`, or for a sequence of nonces a block's, drawn as the
    parties drew them: party 1 (client) and 2 (server) from
    SeedSequence([seed, party, k]) for bundle k, [seed, party] for k = 0."""
    block = not isinstance(nonce, int)
    nonces = tuple(nonce) if block else (nonce,)
    batch = (len(nonces),) if block else ()

    def rngs(party):
        return tuple(
            np.random.default_rng(np.random.SeedSequence([seed, party, k] if k else [seed, party]))
            for k in nonces
        )

    compiled = compile_network(arch)
    client, server = rngs(1), rngs(2)
    masks = {pt.index: _draw(client, batch, pt.shape) for pt in compiled.masked_points}
    shares = {u.uid: _draw(server, batch, u.out_shape) for u in compiled.units}
    return masks, shares


def _conv_plain(x: np.ndarray, w: np.ndarray, b: np.ndarray, stride: int, pad: int):
    kh, kw = w.shape[2:]
    if pad:
        x = np.pad(x, ((0, 0), (pad, pad), (pad, pad)))
    # (ci, oh, ow, kh, kw) view of every input window
    win = sliding_window_view(x, (kh, kw), axis=(1, 2))[:, ::stride, ::stride]
    out = np.tensordot(w, win, axes=([1, 2, 3], [0, 3, 4]))
    return out + b[:, None, None]


def _pool_plain(x: np.ndarray, window: int, stride: int) -> np.ndarray:
    c, h, w = x.shape
    oh = (h - window) // stride + 1
    ow = (w - window) // stride + 1
    out = np.zeros((c, oh, ow), dtype=np.int64)
    for ky in range(window):
        for kx in range(window):
            out += x[:, ky : ky + oh * stride : stride, kx : kx + ow * stride : stride]
    return out


def _check_bound(x: np.ndarray, where: str, p: int) -> None:
    peak = int(np.abs(x).max()) if x.size else 0
    if peak > (p - 1) // 2:
        raise FieldOverflowRisk(
            f"{where}: |value| {peak} exceeds the signed field window "
            f"{(p - 1) // 2}; results would wrap"
        )


def plaintext_forward(
    arch: NetworkArch,
    weights: dict,
    x: np.ndarray,
    p: int = FIELD_MODULUS,
    trace: dict[int, np.ndarray] | None = None,
) -> np.ndarray:
    """Exact integer logits for the given input and weights.

    When trace is a dict it receives the pre-activation tensor of the
    j-th ReLU (in layer order) under key j.
    """
    x = np.asarray(x, dtype=np.int64)
    _check_bound(x, "input", p)
    outputs: dict[int, np.ndarray] = {}
    skips_at = {}
    for i, skip in enumerate(arch.skips):
        skips_at.setdefault(skip.merge, []).append((i, skip))

    relu_ordinal = 0
    cur = x
    for idx, layer in enumerate(arch.layers):
        if isinstance(layer, Conv):
            w, b = weights[idx]
            cur = _conv_plain(cur, w, b, layer.stride, layer.padding)
        elif isinstance(layer, FC):
            w, b = weights[idx]
            cur = w @ cur + b
        elif isinstance(layer, ReLU):
            if trace is not None:
                trace[relu_ordinal] = cur.copy()
            relu_ordinal += 1
            cur = np.maximum(cur, 0)
        elif isinstance(layer, AvgPool):
            window = cur.shape[1] if layer.is_global else layer.window
            stride = window if layer.is_global else (layer.stride or layer.window)
            cur = _pool_plain(cur, window, stride)
        elif isinstance(layer, Flatten):
            cur = cur.reshape(-1)
        for i, skip in skips_at.get(idx, []):
            src = x if skip.source == -1 else outputs[skip.source]
            if skip.conv is not None:
                w, b = weights[("skip", i)]
                src = _conv_plain(src, w, b, skip.conv.stride, skip.conv.padding)
            cur = cur + src
        _check_bound(cur, f"layer {idx} ({layer.kind})", p)
        outputs[idx] = cur
    return cur
