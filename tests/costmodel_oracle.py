"""Reference cost formulas for the equivalence tests.

These are the original named-rate versions of the component cost model:
one field per rate, knobs applied field by field, and the offline, online
and HE sums written out term by term. `named_rates` reads those fields
back out of a fitted model's rate vectors, so `pisim.costmodel` must
agree with these functions on every query.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from pisim.costmodel import (
    BASE_OT_BYTES_PER_DIRECTION,
    GC_TRANSFER_BYTES_PER_RELU,
    HE_CT_BYTES_PER_ELEM,
    KEY_BYTES,
    SHARE_BYTES_PER_ELEM,
    CommInputs,
    CostModel,
    OptimizationKnobs,
    PhaseCosts,
    Protocol,
    offline_comm,
    online_comm,
    storage_deltas,
)
from pisim.netarch import NetworkArch, canonical_dataset, count


@dataclass(frozen=True)
class NamedRates:
    gc_bytes_per_relu: float
    he_conv_s_per_flop: dict[int, float]
    he_fc_s_per_flop: dict[int, float]
    he_s_per_linear_unit: float
    garble_s_per_relu: dict[Protocol, float]
    offline_fixed_s: float
    gc_eval_s_per_relu: float
    online_conv_s_per_flop: float
    online_fc_s_per_flop: float
    ot_online_s_per_relu: float
    online_fixed_s: float
    table: dict


def named_rates(cm: CostModel) -> NamedRates:
    cols = cm.columns
    off = iter(cm.offline_rates)
    he_conv = {a: next(off) for a in cols.conv_areas}
    he_fc = {a: next(off) for a in cols.fc_areas}
    per_unit = next(off)
    garble = {p: next(off) for p in cols.protocols}
    off_fixed = next(off)
    assert next(off, None) is None
    on = list(cm.online_rates)
    ot = on.pop() if Protocol.CLIENT_GARBLER in cols.protocols else 0.0
    gc_eval, conv, fc, on_fixed = on
    return NamedRates(
        gc_bytes_per_relu=cm.gc_bytes_per_relu,
        he_conv_s_per_flop=he_conv,
        he_fc_s_per_flop=he_fc,
        he_s_per_linear_unit=per_unit,
        garble_s_per_relu=garble,
        offline_fixed_s=off_fixed,
        gc_eval_s_per_relu=gc_eval,
        online_conv_s_per_flop=conv,
        online_fc_s_per_flop=fc,
        ot_online_s_per_relu=ot,
        online_fixed_s=on_fixed,
        table=cm.table,
    )


def scaled_model(cm: NamedRates, knobs: OptimizationKnobs) -> NamedRates:
    """Apply the per-unit knob factors to a calibrated model."""
    if knobs.is_identity:
        return cm
    return replace(
        cm,
        gc_bytes_per_relu=cm.gc_bytes_per_relu * knobs.gc_per_relu_factor,
        he_conv_s_per_flop={
            k: v * knobs.he_per_flop_factor for k, v in cm.he_conv_s_per_flop.items()
        },
        he_fc_s_per_flop={
            k: v * knobs.he_per_flop_factor for k, v in cm.he_fc_s_per_flop.items()
        },
        garble_s_per_relu={
            k: v * knobs.gc_per_relu_factor for k, v in cm.garble_s_per_relu.items()
        },
        gc_eval_s_per_relu=cm.gc_eval_s_per_relu * knobs.gc_per_relu_factor,
        ot_online_s_per_relu=cm.ot_online_s_per_relu,
    )


def _rate_for_area(rates: dict[int, float], area: int) -> float:
    """Exact area match, else the calibrated area nearest in log scale."""
    if not rates:
        return 0.0
    if area in rates:
        return rates[area]
    nearest = min(rates, key=lambda a: abs(math.log(area / a)))
    return rates[nearest]


def _split_like(total: int, c2s_model: int, s2c_model: int) -> tuple[int, int]:
    model_total = c2s_model + s2c_model
    if model_total == 0:
        return 0, total
    c2s = int(round(total * c2s_model / model_total))
    return c2s, total - c2s


def _he_seconds(cm: NamedRates, area: int, conv_flops: float, fc_flops: float, n_units: int) -> float:
    return (
        _rate_for_area(cm.he_conv_s_per_flop, area) * conv_flops
        + _rate_for_area(cm.he_fc_s_per_flop, area) * fc_flops
        + cm.he_s_per_linear_unit * n_units
    )


def component_costs(
    cm: NamedRates,
    protocol: Protocol,
    arch: NetworkArch,
    bandwidth: float,
    knobs: OptimizationKnobs,
) -> PhaseCosts:
    cm_k = scaled_model(cm, knobs)
    profile = count(arch)
    sizes = CommInputs.from_arch(arch).scaled(knobs.relu_factor)
    conv_flops = profile.conv_flops * knobs.flop_factor
    fc_flops = profile.fc_flops * knobs.flop_factor
    area = arch.dataset.height * arch.dataset.width

    he = _he_seconds(cm_k, area, conv_flops, fc_flops, profile.n_units)
    off_compute = (
        he + cm_k.garble_s_per_relu[protocol] * sizes.relus + cm_k.offline_fixed_s
    )
    on_compute = (
        cm_k.gc_eval_s_per_relu * sizes.relus
        + cm_k.online_conv_s_per_flop * conv_flops
        + cm_k.online_fc_s_per_flop * fc_flops
        + cm_k.online_fixed_s
    )
    if protocol is Protocol.CLIENT_GARBLER:
        on_compute += cm_k.ot_online_s_per_relu * sizes.relus

    off_comm = offline_comm(protocol, sizes)
    on_comm = online_comm(protocol, sizes)
    deltas = storage_deltas(protocol, sizes)

    gc_shrink = int(
        round(GC_TRANSFER_BYTES_PER_RELU * sizes.relus * (1.0 - knobs.gc_per_relu_factor))
    )
    off_c2s, off_s2c = off_comm.c2s_bytes, off_comm.s2c_bytes
    client_recv = deltas.client_received_bytes
    server_recv = deltas.server_received_bytes
    if protocol is Protocol.SERVER_GARBLER:
        off_s2c -= gc_shrink
        client_recv -= gc_shrink
    else:
        off_c2s -= gc_shrink
        server_recv -= gc_shrink

    gc_bytes = int(round(cm_k.gc_bytes_per_relu * sizes.relus))
    return PhaseCosts(
        protocol=protocol,
        model=arch.name,
        dataset=arch.dataset.name,
        offline_latency_s=off_compute + (off_c2s + off_s2c) / bandwidth,
        online_latency_s=on_compute + on_comm.total_bytes / bandwidth,
        offline_compute_s=off_compute,
        online_compute_s=on_compute,
        offline_he_s=he,
        offline_comm_c2s_bytes=off_c2s,
        offline_comm_s2c_bytes=off_s2c,
        online_comm_c2s_bytes=on_comm.c2s_bytes,
        online_comm_s2c_bytes=on_comm.s2c_bytes,
        client_storage_delta_bytes=client_recv + deltas.client_self_bytes,
        server_storage_delta_bytes=server_recv + deltas.server_self_bytes,
        gc_storage_bytes=gc_bytes,
        bandwidth_bytes_per_s=bandwidth,
    )


def table_costs(
    cm: NamedRates, protocol: Protocol, arch: NetworkArch, bandwidth: float
) -> PhaseCosts:
    row = cm.table[(protocol, arch.name, canonical_dataset(arch.dataset.name))]
    sizes = CommInputs.from_arch(arch)
    profile = count(arch)
    model_off = offline_comm(protocol, sizes)
    model_on = online_comm(protocol, sizes)
    off_bytes = row.offline_comm_bytes
    off_bytes = model_off.total_bytes if off_bytes is None else off_bytes
    on_bytes = row.online_comm_bytes
    on_bytes = model_on.total_bytes if on_bytes is None else on_bytes

    bw0 = row.bandwidth_bytes_per_s
    off_compute = row.offline_latency_s - off_bytes / bw0
    on_compute = row.online_latency_s - on_bytes / bw0
    he = min(
        _he_seconds(
            cm,
            arch.dataset.height * arch.dataset.width,
            profile.conv_flops,
            profile.fc_flops,
            profile.n_units,
        ),
        off_compute,
    )
    off_c2s, off_s2c = _split_like(off_bytes, model_off.c2s_bytes, model_off.s2c_bytes)
    on_c2s, on_s2c = _split_like(on_bytes, model_on.c2s_bytes, model_on.s2c_bytes)
    return PhaseCosts(
        protocol=protocol,
        model=arch.name,
        dataset=arch.dataset.name,
        offline_latency_s=off_compute + off_bytes / bandwidth,
        online_latency_s=on_compute + on_bytes / bandwidth,
        offline_compute_s=off_compute,
        online_compute_s=on_compute,
        offline_he_s=he,
        offline_comm_c2s_bytes=off_c2s,
        offline_comm_s2c_bytes=off_s2c,
        online_comm_c2s_bytes=on_c2s,
        online_comm_s2c_bytes=on_s2c,
        client_storage_delta_bytes=row.client_storage_bytes,
        server_storage_delta_bytes=row.server_storage_bytes,
        gc_storage_bytes=int(round(cm.gc_bytes_per_relu * sizes.relus)),
        bandwidth_bytes_per_s=bandwidth,
    )


def predict_compute(cm: NamedRates, protocol: Protocol, arch: NetworkArch) -> tuple[float, float]:
    """Offline and online compute seconds of one calibration row, as the report priced them."""
    profile = count(arch)
    relus = CommInputs.from_arch(arch).relus
    area = arch.dataset.height * arch.dataset.width
    he = (
        cm.he_conv_s_per_flop.get(area, 0.0) * profile.conv_flops
        + cm.he_fc_s_per_flop.get(area, 0.0) * profile.fc_flops
        + cm.he_s_per_linear_unit * profile.n_units
    )
    off = he + cm.garble_s_per_relu[protocol] * relus + cm.offline_fixed_s
    on = (
        cm.gc_eval_s_per_relu * relus
        + cm.online_conv_s_per_flop * profile.conv_flops
        + cm.online_fc_s_per_flop * profile.fc_flops
        + cm.online_fixed_s
    )
    if protocol is Protocol.CLIENT_GARBLER:
        on += cm.ot_online_s_per_relu * relus
    return off, on


def gc_party_small_terms(protocol: Protocol, sizes: CommInputs) -> int:
    """GC-party storage that does not scale with the ReLU count.

    Calibration subtracts these structural terms before fitting the
    per-ReLU storage rate, so the fitted rate reflects the per-ReLU
    footprint alone (circuit, labels, decode or OT state).
    """
    if protocol is Protocol.SERVER_GARBLER:
        return (
            HE_CT_BYTES_PER_ELEM * sizes.mask_out_elems
            + SHARE_BYTES_PER_ELEM * sizes.mask_in_elems
        )
    return (
        KEY_BYTES
        + BASE_OT_BYTES_PER_DIRECTION
        + SHARE_BYTES_PER_ELEM * sizes.mask_out_elems
    )
