"""Parameter, FLOP, ReLU and masked-element counting.

Convention: one multiply-accumulate = one FLOP, so a conv or FC costs
out_elems * prod(weight_shape[1:]) (in_channels * kernel**2 per output
of a conv, in per output of an FC) and holds prod(weight_shape) weights
plus weight_shape[0] biases if it has them; `weight_shape` is the
layer's own. Pooling and elementwise ops are not counted.
Skip-connection convs contribute params and FLOPs; identity skips
contribute nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .layers import NetworkArch
from .lowering import compile_network


@dataclass(frozen=True)
class LayerCounts:
    """Every count the cost and byte models read from one network.

    conv_flops (skip projections included) and fc_flops split flops.
    n_units counts HE-processed linear units: convs, FCs, and skip
    connections (identity skips still cost a homomorphic pass for the
    client's share). mask_in/mask_out are the total elements masked at
    linear-segment inputs and shared at segment outputs. Segments are the
    linear units of `netarch.lowering.compile_network`: its masked points
    (the input and every ReLU output) are masked, and every ReLU input,
    the logits and each skip merge carry a share.
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


def count(arch: NetworkArch) -> LayerCounts:
    """Validate and lower arch, then fold its units and points into counts."""
    net = compile_network(arch)
    flops = {"conv": 0, "fc": 0}
    params = n_units = 0
    for unit in net.units:
        weighted = [op for op in unit.ops if op.weight_key is not None]
        n_units += 1 if unit.is_skip else len(weighted)
        for op in weighted:
            shape = op.layer.weight_shape
            params += math.prod(shape) + shape[0] * op.layer.bias
            flops[op.layer.kind] += math.prod(op.out_shape) * math.prod(shape[1:])
    relus = net.total_relus
    return LayerCounts(
        params=params,
        flops=flops["conv"] + flops["fc"],
        relus=relus,
        conv_flops=flops["conv"],
        fc_flops=flops["fc"],
        n_units=n_units,
        mask_in_elems=sum(p.elems for p in net.masked_points),
        mask_out_elems=sum(u.out_elems for u in net.units),
    )
