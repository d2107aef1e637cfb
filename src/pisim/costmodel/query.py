"""Cost queries against a calibrated model.

One fitted CostModel answers each query in the mode the query names, and
the two prediction paths share one PhaseCosts constructor, `_priced`.
Table mode replays a measured row (exact at the calibrated bandwidth,
wire term re-priced at other bandwidths), split into bytes and compute by
`measured_phases`, as the fit splits it; it prices only the networks that
were measured. Component mode prices any architecture, including
knob-scaled what-ifs, with the formula the rates were fit by; the
calibration report prices each measured row through it.
"""

from __future__ import annotations

import math

from ..netarch import NetworkArch, build_preset, canonical_dataset
from .comm import (
    GC_TRANSFER_BYTES_PER_RELU,
    CommInputs,
    CommTotals,
    offline_comm,
    online_comm,
    storage_deltas,
)
from .formula import IDENTITY, compute_seconds
from .types import (
    KNOB_FACTORS,
    CostModel,
    InsufficientRows,
    InvalidCostInput,
    MeasuredCosts,
    OptimizationKnobs,
    PhaseCosts,
    Protocol,
    UncalibratedTriple,
)

# the two ways a query prices a network, in the order messages name them
COST_MODES = ("table", "component")


def _split_like(total: int, c2s_model: int, s2c_model: int) -> tuple[int, int]:
    model_total = c2s_model + s2c_model
    if model_total == 0:
        return 0, total
    c2s = int(round(total * c2s_model / model_total))
    return c2s, total - c2s


def measured_phases(
    row: MeasuredCosts, sizes: CommInputs
) -> tuple[tuple[CommTotals, float], tuple[CommTotals, float]]:
    """The offline and online (bytes, compute seconds) of a measured row.

    A phase's bytes are the row's comm column, or the structural model's
    where the column is "-", split between the directions as the model
    splits them; its compute is the measured latency less their wire time
    at the row's bandwidth.
    """
    phases = []
    for measured, latency, model in (
        (row.offline_comm_bytes, row.offline_latency_s, offline_comm(row.protocol, sizes)),
        (row.online_comm_bytes, row.online_latency_s, online_comm(row.protocol, sizes)),
    ):
        total = model.total_bytes if measured is None else measured
        c2s, s2c = _split_like(total, model.c2s_bytes, model.s2c_bytes)
        phases.append((CommTotals(c2s, s2c), latency - total / row.bandwidth_bytes_per_s))
    return phases[0], phases[1]


def _priced(
    cm: CostModel,
    protocol: Protocol,
    labels: tuple[str, str],
    sizes: CommInputs,
    knobs: OptimizationKnobs,
    bandwidth: float,
    compute: tuple[float, float, float],
    comm: tuple[CommTotals, CommTotals],
    storage: tuple[int, int],
) -> PhaseCosts:
    """The one PhaseCosts constructor, on knob-scaled sizes.

    compute is offline, online and offline-HE seconds, comm each phase's
    bytes and storage the client's and the server's. A phase's latency is
    its compute plus its bytes over the bandwidth; the GC side parks the
    fitted bytes per garbled ReLU, scaled by the per-ReLU knob.
    """
    (off_s, on_s, he), (off, on), (client, server) = compute, comm, storage
    return PhaseCosts(
        protocol=protocol,
        model=labels[0],
        dataset=labels[1],
        offline_latency_s=off_s + off.total_bytes / bandwidth,
        online_latency_s=on_s + on.total_bytes / bandwidth,
        offline_compute_s=off_s,
        online_compute_s=on_s,
        offline_he_s=he,
        offline_comm_c2s_bytes=off.c2s_bytes,
        offline_comm_s2c_bytes=off.s2c_bytes,
        online_comm_c2s_bytes=on.c2s_bytes,
        online_comm_s2c_bytes=on.s2c_bytes,
        client_storage_delta_bytes=client,
        server_storage_delta_bytes=server,
        gc_storage_bytes=int(
            round(cm.gc_bytes_per_relu * knobs.gc_per_relu_factor * sizes.relus)
        ),
        bandwidth_bytes_per_s=bandwidth,
    )


def component_costs(
    cm: CostModel,
    protocol: Protocol,
    labels: tuple[str, str],
    unscaled: CommInputs,
    bandwidth: float,
    knobs: OptimizationKnobs = IDENTITY,
) -> PhaseCosts:
    """Price a network's counts with the fitted rates and the byte model.

    labels are the model and dataset names the result carries. Component
    queries and the calibration report both price through here.
    """
    sizes = unscaled.scaled(knobs.relu_factor)
    off_comm = offline_comm(protocol, sizes)
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

    return _priced(
        cm, protocol, labels, sizes, knobs, bandwidth,
        compute_seconds(cm, protocol, unscaled, knobs),
        (CommTotals(off_c2s, off_s2c), online_comm(protocol, sizes)),
        (client_recv + deltas.client_self_bytes, server_recv + deltas.server_self_bytes),
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
    if arch != build_preset(row.model, row.dataset):
        raise UncalibratedTriple(
            f"{arch.name}/{arch.dataset.name} is not the network measured under that "
            "name; table mode replays only the measured networks, use --mode component"
        )
    sizes = CommInputs.from_arch(arch)
    (off, off_compute), (on, on_compute) = measured_phases(row, sizes)
    # Measured totals are not decomposed; attribute the fitted HE share.
    he = min(compute_seconds(cm, protocol, sizes)[2], off_compute)
    return _priced(
        cm, protocol, (arch.name, arch.dataset.name), sizes, IDENTITY, bandwidth,
        (off_compute, on_compute, he),
        (off, on),
        (row.client_storage_bytes, row.server_storage_bytes),
    )


def phase_costs(
    cm: CostModel,
    protocol,
    arch: NetworkArch,
    bandwidth: float | None = None,
    knobs: OptimizationKnobs | None = None,
    mode: str = "component",
) -> PhaseCosts:
    """Predict per-inference offline and online costs: mode "table"
    replays a measured row, "component" prices with the fitted rates.
    Component costs that a float cannot hold are an InvalidCostInput that
    names the knob factors."""
    protocol = Protocol.parse(protocol)
    if protocol not in cm.calibrated_protocols:
        raise InsufficientRows(
            f"model was calibrated without {protocol.short} rows"
        )
    bandwidth = cm.calibrated_bandwidth if bandwidth is None else bandwidth
    if not (math.isfinite(bandwidth) and bandwidth > 0):
        raise InvalidCostInput(f"bandwidth must be finite and positive, got {bandwidth}")
    knobs = knobs or IDENTITY
    if mode not in COST_MODES:
        raise InvalidCostInput(f"unknown cost mode {mode!r}; use {' or '.join(COST_MODES)}")
    if mode == "table":
        if not knobs.is_identity:
            raise InvalidCostInput(
                "table mode replays measured rows and cannot apply "
                "optimization knobs; use component mode"
            )
        return _table_costs(cm, protocol, arch, bandwidth)
    labels = (arch.name, arch.dataset.name)
    try:
        costs = component_costs(cm, protocol, labels, CommInputs.from_arch(arch), bandwidth, knobs)
        if math.isfinite(costs.offline_compute_s + costs.online_compute_s):
            return costs
    except (OverflowError, InvalidCostInput):  # an infinite or NaN scaled count or cost
        pass
    scaled = ", ".join(f"{f}={getattr(knobs, f):g}" for f in KNOB_FACTORS if getattr(knobs, f) != 1)
    raise InvalidCostInput(f"the costs of {'/'.join(labels)} overflow"
                           + (f" under knobs {scaled}" if scaled else ""))
