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

    def draw(key: WeightKey, layer: Conv | FC) -> None:
        shape = layer.weight_shape
        w = rng.integers(-3, 4, size=shape, dtype=np.int64)
        if layer.bias:
            b = rng.integers(-3, 4, size=shape[:1], dtype=np.int64)
        else:
            b = np.zeros(shape[0], dtype=np.int64)
        weights[key] = (w, b)

    for idx, layer in enumerate(arch.layers):
        if isinstance(layer, (Conv, FC)):
            draw(idx, layer)
    for i, skip in enumerate(arch.skips):
        if skip.conv is not None:
            draw(("skip", i), skip.conv)
    return weights
