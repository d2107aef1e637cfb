"""Parameter, FLOP, ReLU and masked-element counting.

Convention: one multiply-accumulate = one FLOP, so a conv costs
out_elems * in_channels * kernel**2 and an FC costs in * out. Pooling
and elementwise ops are not counted. Skip-connection convs contribute
params and FLOPs; identity skips contribute nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .layers import Conv, FC, NetworkArch, ReLU
from .shapes import Shape, skip_shape, validate


@dataclass(frozen=True)
class LayerCounts:
    """Every count the cost and byte models read from one network.

    conv_flops (skip projections included) and fc_flops split flops.
    n_units counts HE-processed linear units: convs, FCs, and skip
    connections (identity skips still cost a homomorphic pass for the
    client's share). mask_in/mask_out are the total elements masked at
    linear-segment inputs and shared at segment outputs. Segments are the
    linear runs between masked points, as `protocol.compile_network`
    lowers them: the input and every ReLU output are masked, and every
    ReLU input, the logits and each skip merge carry a share.
    """

    params: int
    flops: int
    relus: int
    conv_flops: int
    fc_flops: int
    n_units: int
    mask_in_elems: int
    mask_out_elems: int


def layer_kind_counts(arch: NetworkArch) -> dict[str, int]:
    """Counts of each layer kind, excluding skip-connection convs."""
    kinds: dict[str, int] = {"conv": 0, "relu": 0, "avgpool": 0, "fc": 0, "flatten": 0}
    for layer in arch.layers:
        kinds[layer.kind] += 1
    return kinds


def _conv(conv: Conv, out: Shape) -> tuple[int, int]:
    """Params and FLOPs of a conv whose output has shape out."""
    macs = conv.in_channels * conv.kernel**2
    return conv.out_channels * (macs + int(conv.bias)), math.prod(out) * macs


def count(arch: NetworkArch) -> LayerCounts:
    """Validate arch and count it in one pass over its layers and skips."""
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
    for skip in arch.skips:
        mask_out += math.prod(shapes[skip.merge])
        if skip.conv is not None:
            p, f = _conv(skip.conv, skip_shape(skip, shapes, input_shape))
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
