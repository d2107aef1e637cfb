"""Cost queries against a calibrated model.

Two prediction paths share one PhaseCosts shape. Table mode replays a
measured row (exact at the calibrated bandwidth, wire term re-priced
at other bandwidths). Component mode prices any architecture, including
knob-scaled what-ifs, with the formula the rates were fit by.
"""

from __future__ import annotations

import math

from ..netarch import NetworkArch, canonical_dataset, count
from .comm import GC_TRANSFER_BYTES_PER_RELU, offline_comm, online_comm, storage_deltas
from .formula import IDENTITY, Workload, compute_seconds
from .types import (
    CostModel,
    InsufficientRows,
    InvalidCostInput,
    OptimizationKnobs,
    PhaseCosts,
    Protocol,
    UncalibratedTriple,
)


def _split_like(total: int, c2s_model: int, s2c_model: int) -> tuple[int, int]:
    model_total = c2s_model + s2c_model
    if model_total == 0:
        return 0, total
    c2s = int(round(total * c2s_model / model_total))
    return c2s, total - c2s


def _component_costs(
    cm: CostModel,
    protocol: Protocol,
    arch: NetworkArch,
    bandwidth: float,
    knobs: OptimizationKnobs,
) -> PhaseCosts:
    w = Workload.of(arch)
    sizes = w.sizes.scaled(knobs.relu_factor)
    off_compute, on_compute, he = compute_seconds(cm, protocol, w, knobs)

    off_comm = offline_comm(protocol, sizes)
    on_comm = online_comm(protocol, sizes)
    deltas = storage_deltas(protocol, sizes)

    # Cheaper per-ReLU garbling shrinks the GC bytes on the wire and in
    # storage; the structural tables carry the unscaled constant.
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

    gc_bytes = int(round(cm.gc_bytes_per_relu * knobs.gc_per_relu_factor * sizes.relus))
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


def _table_costs(
    cm: CostModel, protocol: Protocol, arch: NetworkArch, bandwidth: float
) -> PhaseCosts:
    key = (protocol, arch.name, canonical_dataset(arch.dataset.name))
    if key not in cm.table:
        raise UncalibratedTriple(
            f"no measured row for {protocol.short}/{arch.name}/{arch.dataset.name}"
        )
    row = cm.table[key]
    w = Workload.of(arch)
    model_off = offline_comm(protocol, w.sizes)
    model_on = online_comm(protocol, w.sizes)
    off_bytes = row.offline_comm_bytes
    off_bytes = model_off.total_bytes if off_bytes is None else off_bytes
    on_bytes = row.online_comm_bytes
    on_bytes = model_on.total_bytes if on_bytes is None else on_bytes

    bw0 = row.bandwidth_bytes_per_s
    off_compute = row.offline_latency_s - off_bytes / bw0
    on_compute = row.online_latency_s - on_bytes / bw0
    # Measured totals are not decomposed; attribute the fitted HE share.
    he = min(compute_seconds(cm, protocol, w)[2], off_compute)
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
        gc_storage_bytes=int(round(cm.gc_bytes_per_relu * w.sizes.relus)),
        bandwidth_bytes_per_s=bandwidth,
    )


def phase_costs(
    cm: CostModel,
    protocol,
    arch: NetworkArch,
    bandwidth: float | None = None,
    knobs: OptimizationKnobs | None = None,
) -> PhaseCosts:
    """Predict per-inference offline and online costs in cm.mode."""
    protocol = Protocol.parse(protocol)
    if protocol not in cm.calibrated_protocols:
        raise InsufficientRows(
            f"model was calibrated without {protocol.short} rows"
        )
    bandwidth = cm.calibrated_bandwidth if bandwidth is None else bandwidth
    if not (math.isfinite(bandwidth) and bandwidth > 0):
        raise InvalidCostInput(f"bandwidth must be finite and positive, got {bandwidth}")
    knobs = knobs or IDENTITY
    if cm.mode == "table":
        if not knobs.is_identity:
            raise InvalidCostInput(
                "table mode replays measured rows and cannot apply "
                "optimization knobs; use component mode"
            )
        return _table_costs(cm, protocol, arch, bandwidth)
    return _component_costs(cm, protocol, arch, bandwidth, knobs)


def gc_storage(
    arch: NetworkArch, cm: CostModel, knobs: OptimizationKnobs | None = None
) -> int:
    """Bytes of garbled material one inference parks on the GC side."""
    knobs = knobs or IDENTITY
    relus = count(arch).relus * knobs.relu_factor
    return int(round(relus * cm.gc_bytes_per_relu * knobs.gc_per_relu_factor))
