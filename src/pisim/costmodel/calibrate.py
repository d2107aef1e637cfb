"""Fitting per-unit rates from measured end-to-end rows.

The fit splits each measured latency into a wire term (bytes over the
measured bandwidth, priced by the structural byte model) and a compute
term. The compute term is the dot product of the row's feature vector
with a rate vector over the calibrated columns (see `formula`), so each
phase is a linear system: one design row per measured row, whose
coefficients are the row's features. `nnls` solves each system for
non-negative rates with the active-set method of Lawson and Hanson
(Solving Least Squares Problems, 1974).

Rows are weighted relatively so small online latencies count as much as
large offline ones. A soft prior row per input area keeps the HE share
of offline compute near its measured fraction on the largest-FLOP row of
that area; its coefficients are that row's FLOP-driven HE features,
which pins down the split between the FLOP-driven and ReLU-driven
offline terms. The report prices every row through the component query
path at the row's bandwidth, and calibration fails unless every row's
residuals are within the tolerances below.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..netarch import build_preset
from .comm import CommInputs, storage_deltas
from .formula import Columns, compute_seconds
from .query import component_costs, measured_phases
from .tables import measured_table
from .types import (
    CalibrationReport,
    CostModel,
    InconsistentRows,
    InsufficientRows,
    MeasuredCosts,
    Protocol,
)


# Largest relative residual a row may keep, on each phase's latency and
# on each party's storage.
LATENCY_TOLERANCE = 0.10
STORAGE_TOLERANCE = 0.05
# The HE share of offline compute the prior pins on each area's anchor
# row, and the prior row's weight beside the measured rows' 1.
HE_SHARE_TARGET = 0.915
HE_SHARE_WEIGHT = 0.6


@dataclass(frozen=True)
class _RowView:
    row: MeasuredCosts
    sizes: CommInputs
    offline_compute_s: float
    online_compute_s: float

    @property
    def label(self) -> str:
        return f"{self.row.protocol.short}/{self.row.model}/{self.row.dataset}"


def _view(row: MeasuredCosts, sizes: CommInputs) -> _RowView:
    (_, off_compute), (_, on_compute) = measured_phases(row, sizes)
    if off_compute <= 0 or on_compute <= 0:
        raise InconsistentRows(
            f"{row.protocol.short}/{row.model}/{row.dataset}: modeled wire time "
            "exceeds the measured latency; bandwidth or comm columns are off"
        )
    return _RowView(
        row=row, sizes=sizes, offline_compute_s=off_compute, online_compute_s=on_compute
    )


def _fit_gc_rate(views: list[_RowView]) -> float:
    rates = []
    for v in views:
        # the GC party's storage that does not scale with the ReLU count
        small = storage_deltas(v.row.protocol, replace(v.sizes, relus=0))
        if v.row.protocol is Protocol.SERVER_GARBLER:
            gc_party_bytes = v.row.client_storage_bytes - small.client_bytes
        else:
            gc_party_bytes = v.row.server_storage_bytes - small.server_bytes
        rates.append(gc_party_bytes / v.sizes.relus)
    rates_arr = np.asarray(rates)
    mean = float(rates_arr.mean())
    if mean <= 0:
        raise InconsistentRows("fitted GC storage rate is not positive")
    spread = float(np.abs(rates_arr - mean).max() / mean)
    if spread > STORAGE_TOLERANCE:
        raise InconsistentRows(
            f"per-row GC storage rates disagree by {spread:.1%} "
            f"(tolerance {STORAGE_TOLERANCE:.0%})"
        )
    return mean


def nnls(a: np.ndarray, b: np.ndarray, max_iter: int | None = None) -> np.ndarray:
    """argmin ||a x - b|| subject to x >= 0, by the Lawson-Hanson active set.

    Raises InconsistentRows if max_iter (default 3 * columns) steps, each
    freeing one column, do not reach the optimum.
    """
    m, n = a.shape
    max_iter = 3 * n if max_iter is None else max_iter
    # Unit-norm columns keep the least-squares steps accurate when the
    # columns' scales differ by orders of magnitude, as FLOPs and 1 do.
    norms = np.linalg.norm(a, axis=0)
    norms[norms == 0] = 1.0
    a = a / norms
    tol = 10 * max(m, n) * np.finfo(float).eps * np.abs(a).sum(axis=0).max() * np.abs(b).sum()
    x = np.zeros(n)
    passive = np.zeros(n, dtype=bool)
    for _ in range(max_iter + 1):
        grad = a.T @ (b - a @ x)
        if passive.all() or grad[~passive].max() <= tol:
            return x / norms
        passive[np.argmax(np.where(passive, -np.inf, grad))] = True
        while True:
            z = np.zeros(n)
            z[passive] = np.linalg.lstsq(a[:, passive], b, rcond=None)[0]
            if (z[passive] > 0).all():
                break
            # Step from x toward z until the first passive entry reaches 0.
            blocking = np.flatnonzero(passive & (z <= 0))
            ratios = x[blocking] / np.maximum(x[blocking] - z[blocking], np.finfo(float).tiny)
            x = x + ratios.min() * (z - x)
            x[blocking[ratios.argmin()]] = 0.0
            passive &= x > 0
            x[~passive] = 0.0
        x = z
    raise InconsistentRows(f"NNLS did not converge in {max_iter} steps")


def _anchor(views: list[_RowView], area: int) -> _RowView:
    """The row whose HE share the prior pins for one input area: the
    client-garbler row with the most conv FLOPs, or any row if none is cg."""
    pool = [v for v in views if v.sizes.area == area]
    cg = [v for v in pool if v.row.protocol is Protocol.CLIENT_GARBLER]
    return max(cg or pool, key=lambda v: v.sizes.conv_flops)


def _solve(design: list[tuple[list[float], float, float]]) -> tuple[float, ...]:
    """Non-negative rates for (features, target, weight) rows, weighted relatively.

    The rows are solved in a canonical order, so that the rates, to the
    last bit, do not depend on the order of the measured table.
    """
    design = sorted(design, key=lambda row: (row[1], row[2], row[0]))
    a = np.array([np.asarray(f) * (weight / target) for f, target, weight in design])
    b = np.array([weight for _, _, weight in design])
    return tuple(float(r) for r in nnls(a, b))


def calibrate(rows: list[MeasuredCosts]) -> CostModel:
    """Fit a CostModel from measured rows.

    Each row's (model, dataset) names a built-in preset. Partial protocol
    coverage is allowed: queries for a protocol with no rows raise
    InsufficientRows later, at query time.
    """
    if not rows:
        raise InsufficientRows("no measured rows to calibrate from")
    sizes: dict[tuple[str, str], CommInputs] = {}
    for row in rows:
        key = (row.model, row.dataset)
        if key not in sizes:
            sizes[key] = CommInputs.from_arch(build_preset(*key))

    views = [_view(row, sizes[(row.model, row.dataset)]) for row in rows]
    columns = Columns(
        conv_areas=tuple(sorted({v.sizes.area for v in views})),
        fc_areas=tuple(sorted({v.sizes.area for v in views if v.sizes.fc_flops})),
        protocols=tuple(sorted({v.row.protocol for v in views}, key=lambda p: p.value)),
    )
    features = [columns.features(v.row.protocol, v.sizes) for v in views]

    offline = [(off, v.offline_compute_s, 1.0) for v, (off, _) in zip(views, features)]
    for area in columns.conv_areas:
        anchor = _anchor(views, area)
        anchor_off, _ = columns.features(anchor.row.protocol, anchor.sizes)
        prior = [0.0] * len(anchor_off)
        prior[columns.he_flops] = anchor_off[columns.he_flops]
        offline.append((prior, HE_SHARE_TARGET * anchor.offline_compute_s, HE_SHARE_WEIGHT))
    online = [(on, v.online_compute_s, 1.0) for v, (_, on) in zip(views, features)]

    model = CostModel(
        gc_bytes_per_relu=_fit_gc_rate(views),
        columns=columns,
        offline_rates=_solve(offline),
        online_rates=_solve(online),
        calibrated_bandwidth=float(views[0].row.bandwidth_bytes_per_s),
        table=measured_table(rows),
    )
    model = replace(model, report=_build_report(model, views))
    _validate(model.report)
    return model


def _build_report(model: CostModel, views: list[_RowView]) -> CalibrationReport:
    residuals = []
    he_shares = {}
    worst_storage = 0.0
    for v in views:
        row = v.row
        costs = component_costs(
            model, row.protocol, (row.model, row.dataset), v.sizes, row.bandwidth_bytes_per_s
        )
        residuals.append(
            (
                v.label,
                abs(costs.offline_latency_s - row.offline_latency_s) / row.offline_latency_s,
                abs(costs.online_latency_s - row.online_latency_s) / row.online_latency_s,
            )
        )
        for measured, predicted in (
            (row.client_storage_bytes, costs.client_storage_delta_bytes),
            (row.server_storage_bytes, costs.server_storage_delta_bytes),
        ):
            if measured > 0:
                worst_storage = max(worst_storage, abs(predicted - measured) / measured)
    for area in model.columns.conv_areas:
        anchor = _anchor(views, area)
        off, _, he = compute_seconds(model, anchor.row.protocol, anchor.sizes)
        he_shares[anchor.label] = he / off if off > 0 else 0.0
    max_lat = max(max(r[1], r[2]) for r in residuals)
    return CalibrationReport(
        max_latency_residual=max_lat,
        max_storage_residual=worst_storage,
        row_residuals=tuple(residuals),
        he_share_anchors=he_shares,
    )


def _validate(report: CalibrationReport) -> None:
    bad = [r for r in report.row_residuals if max(r[1], r[2]) > LATENCY_TOLERANCE]
    if bad:
        detail = "; ".join(f"{label}: off {o:.1%} on {n:.1%}" for label, o, n in bad)
        raise InconsistentRows(
            f"latency residuals exceed {LATENCY_TOLERANCE:.0%}: {detail}"
        )
    if report.max_storage_residual > STORAGE_TOLERANCE:
        raise InconsistentRows(
            f"storage residuals exceed {STORAGE_TOLERANCE:.0%} "
            f"(worst {report.max_storage_residual:.1%})"
        )
