"""Reference network counts for the lowering's equivalence test.

This is `netarch.count()` as it stood before it became a fold over
`compile_network`: its own walk over the layers and skips, with the
segment rule for units and masked elements written out by hand.
`count()` must agree with it field for field on every valid network.
"""

from __future__ import annotations

import math

from pisim.netarch import Conv, FC, LayerCounts, NetworkArch, ReLU, validate
from pisim.netarch.shapes import Shape, conv_out


def _conv(conv: Conv, out: Shape) -> tuple[int, int]:
    """Params and FLOPs of a conv whose output has shape out."""
    macs = conv.in_channels * conv.kernel**2
    return conv.out_channels * (macs + int(conv.bias)), math.prod(out) * macs


def count(arch: NetworkArch) -> LayerCounts:
    shapes = validate(arch)
    params = conv_flops = fc_flops = relus = 0
    n_units = len(arch.skips)
    for layer, shape in zip(arch.layers, shapes):
        if isinstance(layer, Conv):
            p, f = _conv(layer, shape)
            params += p
            conv_flops += f
            n_units += 1
        elif isinstance(layer, FC):
            params += layer.out_features * (layer.in_features + int(layer.bias))
            fc_flops += layer.in_features * layer.out_features
            n_units += 1
        elif isinstance(layer, ReLU):
            relus += math.prod(shape)
    ds = arch.dataset
    input_shape = (ds.channels, ds.height, ds.width)
    mask_out = relus + math.prod(shapes[-1])
    for i, skip in enumerate(arch.skips):
        mask_out += math.prod(shapes[skip.merge])
        if skip.conv is not None:
            src = input_shape if skip.source == -1 else shapes[skip.source]
            p, f = _conv(skip.conv, conv_out(skip.conv, src, f"skip {i}: conv"))
            params += p
            conv_flops += f
    return LayerCounts(
        params=params,
        flops=conv_flops + fc_flops,
        relus=relus,
        conv_flops=conv_flops,
        fc_flops=fc_flops,
        n_units=n_units,
        mask_in_elems=ds.image_elems + relus,
        mask_out_elems=mask_out,
    )
