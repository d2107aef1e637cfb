"""Parameter, FLOP, ReLU and masked-element counting.

Convention: one multiply-accumulate = one FLOP, so a conv costs
out_elems * in_channels * kernel**2 and an FC costs in * out. Pooling
and elementwise ops are not counted. Skip-connection convs contribute
params and FLOPs; identity skips contribute nothing.
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
    linear units of `netarch.lowering.compile_network`: the input and
    every ReLU output are masked, and every ReLU input, the logits and
    each skip merge carry a share.
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
        weighted = [op for op in unit.ops if op.weight_shape is not None]
        n_units += 1 if unit.is_skip else len(weighted)
        for op in weighted:
            params += math.prod(op.weight_shape) + op.weight_shape[0] * op.has_bias
            flops[op.kind] += math.prod(op.out_shape) * math.prod(op.weight_shape[1:])
    relus = net.total_relus
    return LayerCounts(
        params=params,
        flops=flops["conv"] + flops["fc"],
        relus=relus,
        conv_flops=flops["conv"],
        fc_flops=flops["fc"],
        n_units=n_units,
        mask_in_elems=sum(p.elems for p in net.points if p.masked),
        mask_out_elems=sum(u.out_elems for u in net.units),
    )
