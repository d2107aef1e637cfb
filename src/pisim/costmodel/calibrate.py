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
offline terms. The report prices every row with the same formula.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..netarch import NetworkArch, build_preset, canonical_dataset
from .comm import gc_party_small_terms, offline_comm, online_comm, storage_deltas
from .formula import Columns, Workload, compute_seconds
from .types import (
    CalibrationReport,
    CostModel,
    InconsistentRows,
    InsufficientRows,
    MeasuredCosts,
    Protocol,
)


@dataclass(frozen=True)
class CalibrationOptions:
    latency_tolerance: float = 0.10
    storage_tolerance: float = 0.05
    he_share_target: float = 0.915
    he_share_weight: float = 0.6
    validate: bool = True


@dataclass(frozen=True)
class _RowView:
    row: MeasuredCosts
    w: Workload
    offline_compute_s: float
    online_compute_s: float

    @property
    def label(self) -> str:
        return f"{self.row.protocol.short}/{self.row.model}/{self.row.dataset}"


def _default_archs(rows: list[MeasuredCosts]) -> dict[tuple[str, str], NetworkArch]:
    archs = {}
    for row in rows:
        key = (row.model, row.dataset)
        if key not in archs:
            archs[key] = build_preset(row.model, row.dataset)
    return archs


def _view(row: MeasuredCosts, arch: NetworkArch) -> _RowView:
    w = Workload.of(arch)
    bw = row.bandwidth_bytes_per_s
    off_comm = row.offline_comm_bytes
    if off_comm is None:
        off_comm = offline_comm(row.protocol, w.sizes).total_bytes
    on_comm = row.online_comm_bytes
    if on_comm is None:
        on_comm = online_comm(row.protocol, w.sizes).total_bytes
    off_compute = row.offline_latency_s - off_comm / bw
    on_compute = row.online_latency_s - on_comm / bw
    if off_compute <= 0 or on_compute <= 0:
        raise InconsistentRows(
            f"{row.protocol.short}/{row.model}/{row.dataset}: modeled wire time "
            "exceeds the measured latency; bandwidth or comm columns are off"
        )
    return _RowView(row=row, w=w, offline_compute_s=off_compute, online_compute_s=on_compute)


def _fit_gc_rate(views: list[_RowView], options: CalibrationOptions) -> float:
    rates = []
    for v in views:
        deltas_bytes = (
            v.row.client_storage_bytes
            if v.row.protocol is Protocol.SERVER_GARBLER
            else v.row.server_storage_bytes
        )
        small = gc_party_small_terms(v.row.protocol, v.w.sizes)
        rates.append((deltas_bytes - small) / v.w.sizes.relus)
    rates_arr = np.asarray(rates)
    mean = float(rates_arr.mean())
    if mean <= 0:
        raise InconsistentRows("fitted GC storage rate is not positive")
    spread = float(np.abs(rates_arr - mean).max() / mean)
    if spread > options.storage_tolerance:
        raise InconsistentRows(
            f"per-row GC storage rates disagree by {spread:.1%} "
            f"(tolerance {options.storage_tolerance:.0%})"
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


def _solve(design: list[tuple[list[float], float, float]]) -> tuple[float, ...]:
    """Non-negative rates for (features, target, weight) rows, weighted relatively.

    The rows are solved in a canonical order, so that the rates, to the
    last bit, do not depend on the order of the measured table.
    """
    design = sorted(design, key=lambda row: (row[1], row[2], row[0]))
    a = np.array([np.asarray(f) * (weight / target) for f, target, weight in design])
    b = np.array([weight for _, _, weight in design])
    return tuple(float(r) for r in nnls(a, b))


def calibrate(
    rows: list[MeasuredCosts],
    archs: dict[tuple[str, str], NetworkArch] | None = None,
    options: CalibrationOptions | None = None,
    mode: str = "component",
) -> CostModel:
    """Fit a CostModel from measured rows.

    archs maps (model, dataset) names from the table to architectures;
    unnamed pairs fall back to the built-in presets. Partial protocol
    coverage is allowed: queries for a protocol with no rows raise
    InsufficientRows later, at query time.
    """
    if not rows:
        raise InsufficientRows("no measured rows to calibrate from")
    options = options or CalibrationOptions()
    archs = dict(archs or {})
    for key, arch in _default_archs(rows).items():
        archs.setdefault(key, arch)

    views = [_view(row, archs[(row.model, row.dataset)]) for row in rows]
    columns = Columns(
        conv_areas=tuple(sorted({v.w.area for v in views})),
        fc_areas=tuple(sorted({v.w.area for v in views if v.w.fc_flops})),
        protocols=tuple(sorted({v.row.protocol for v in views}, key=lambda p: p.value)),
    )
    features = [columns.features(v.row.protocol, v.w) for v in views]

    offline = [(off, v.offline_compute_s, 1.0) for v, (off, _) in zip(views, features)]
    if options.he_share_weight > 0:
        for area in columns.conv_areas:
            pool = [v for v in views if v.w.area == area]
            cg = [v for v in pool if v.row.protocol is Protocol.CLIENT_GARBLER]
            anchor = max(cg or pool, key=lambda v: v.w.conv_flops)
            anchor_off, _ = columns.features(anchor.row.protocol, anchor.w)
            prior = [0.0] * len(anchor_off)
            prior[columns.he_flops] = anchor_off[columns.he_flops]
            offline.append(
                (prior, options.he_share_target * anchor.offline_compute_s, options.he_share_weight)
            )
    online = [(on, v.online_compute_s, 1.0) for v, (_, on) in zip(views, features)]

    model = CostModel(
        mode=mode,
        gc_bytes_per_relu=_fit_gc_rate(views, options),
        columns=columns,
        offline_rates=_solve(offline),
        online_rates=_solve(online),
        calibrated_bandwidth=float(views[0].row.bandwidth_bytes_per_s),
        table={(r.protocol, r.model, canonical_dataset(r.dataset)): r for r in rows},
    )
    model = replace(model, report=_build_report(model, views))
    if options.validate:
        _validate(options, model.report)
    return model


def _build_report(model: CostModel, views: list[_RowView]) -> CalibrationReport:
    residuals = []
    he_shares = {}
    worst_storage = 0.0
    for v in views:
        off, on, _ = compute_seconds(model, v.row.protocol, v.w)
        bw = v.row.bandwidth_bytes_per_s
        off_pred = off + offline_comm(v.row.protocol, v.w.sizes).total_bytes / bw
        on_pred = on + online_comm(v.row.protocol, v.w.sizes).total_bytes / bw
        residuals.append(
            (
                v.label,
                abs(off_pred - v.row.offline_latency_s) / v.row.offline_latency_s,
                abs(on_pred - v.row.online_latency_s) / v.row.online_latency_s,
            )
        )
        deltas = storage_deltas(v.row.protocol, v.w.sizes)
        for measured, predicted in (
            (v.row.client_storage_bytes, deltas.client_bytes),
            (v.row.server_storage_bytes, deltas.server_bytes),
        ):
            if measured > 0:
                worst_storage = max(worst_storage, abs(predicted - measured) / measured)
    for area in model.columns.conv_areas:
        anchor = max((v for v in views if v.w.area == area), key=lambda v: v.w.conv_flops)
        off, _, he = compute_seconds(model, anchor.row.protocol, anchor.w)
        he_shares[anchor.label] = he / off if off > 0 else 0.0
    max_lat = max(max(r[1], r[2]) for r in residuals)
    return CalibrationReport(
        max_latency_residual=max_lat,
        max_storage_residual=worst_storage,
        row_residuals=tuple(residuals),
        he_share_anchors=he_shares,
    )


def _validate(options: CalibrationOptions, report: CalibrationReport) -> None:
    bad = [r for r in report.row_residuals if max(r[1], r[2]) > options.latency_tolerance]
    if bad:
        detail = "; ".join(f"{label}: off {o:.1%} on {n:.1%}" for label, o, n in bad)
        raise InconsistentRows(
            f"latency residuals exceed {options.latency_tolerance:.0%}: {detail}"
        )
    if report.max_storage_residual > options.storage_tolerance:
        raise InconsistentRows(
            f"storage residuals exceed {options.storage_tolerance:.0%} "
            f"(worst {report.max_storage_residual:.1%})"
        )
