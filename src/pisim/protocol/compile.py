"""The server's model: small random integer weights for a network.

Weights are keyed by layer index (skip projections by ("skip", i)), the
keys `netarch.compile_network` puts on its ops, so the plaintext
reference can regenerate them without going through the lowering.
"""

from __future__ import annotations

import numpy as np

from ..netarch import Conv, FC, NetworkArch
from ..netarch.lowering import WeightKey


def gen_weights(arch: NetworkArch, seed: int):
    """Small random integer weights in [-3, 3], keyed by layer index.

    The range keeps exact activations comfortably inside the signed
    field window for shallow test networks.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
    weights: dict[WeightKey, tuple[np.ndarray, np.ndarray]] = {}

    def draw(key: WeightKey, w_shape: tuple, out_dim: int, has_bias: bool) -> None:
        w = rng.integers(-3, 4, size=w_shape, dtype=np.int64)
        if has_bias:
            b = rng.integers(-3, 4, size=(out_dim,), dtype=np.int64)
        else:
            b = np.zeros(out_dim, dtype=np.int64)
        weights[key] = (w, b)

    for idx, layer in enumerate(arch.layers):
        if isinstance(layer, Conv):
            shape = (layer.out_channels, layer.in_channels, layer.kernel, layer.kernel)
            draw(idx, shape, layer.out_channels, layer.bias)
        elif isinstance(layer, FC):
            draw(idx, (layer.out_features, layer.in_features), layer.out_features, layer.bias)
    for i, skip in enumerate(arch.skips):
        if skip.conv is not None:
            conv = skip.conv
            shape = (conv.out_channels, conv.in_channels, conv.kernel, conv.kernel)
            draw(("skip", i), shape, conv.out_channels, conv.bias)
    return weights
