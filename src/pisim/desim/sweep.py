"""Arrival-rate sweeps over cost rows, written as long-format CSV."""

from __future__ import annotations

import csv
import dataclasses
import math
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Sequence

from ..costmodel.types import PhaseCosts
from .config import ConfigInfeasible, SimConfig
from .engine import run_many, stability_limit

SWEEP_COLUMNS = [
    "protocol",
    "model",
    "dataset",
    "concurrency",
    "arrival_rate",
    "n_runs",
    "horizon_s",
    "client_capacity_bytes",
    "server_capacity_bytes",
    "offline_latency_s",
    "online_latency_s",
    "stability_limit",
    "feasible",
    "saturated",
    "arrived",
    "completed",
    "mean_latency_s",
    "ci95_latency_s",
    "mean_precompute_wait_s",
    "mean_queue_wait_s",
    "mean_online_s",
    "peak_client_storage_bytes",
    "peak_server_storage_bytes",
    "failure",
]

_NAN_FIELDS = [
    "mean_latency_s",
    "ci95_latency_s",
    "mean_precompute_wait_s",
    "mean_queue_wait_s",
    "mean_online_s",
]


def sweep_point(costs: PhaseCosts, config: SimConfig, base_seed: int = 0) -> dict[str, object]:
    """One grid cell: n_runs realizations of one (costs, rate) pair."""
    row: dict[str, object] = {
        "protocol": costs.protocol.short,
        "model": costs.model,
        "dataset": costs.dataset,
        "concurrency": config.concurrency,
        "arrival_rate": config.arrival_rate,
        "n_runs": config.n_runs,
        "horizon_s": config.horizon_s,
        "client_capacity_bytes": (
            math.inf if config.client_capacity_bytes is None else config.client_capacity_bytes
        ),
        "server_capacity_bytes": config.server_capacity_bytes,
        "offline_latency_s": costs.offline_latency_s,
        "online_latency_s": costs.online_latency_s,
        "stability_limit": stability_limit(costs, config),
    }
    try:
        agg = run_many(costs, config, base_seed)
    except ConfigInfeasible as exc:
        row["feasible"] = False
        row["saturated"] = False
        row["arrived"] = 0
        row["completed"] = 0
        for name in _NAN_FIELDS:
            row[name] = math.nan
        row["peak_client_storage_bytes"] = 0
        row["peak_server_storage_bytes"] = 0
        row["failure"] = str(exc)
        return {c: row[c] for c in SWEEP_COLUMNS}
    row["failure"] = ""
    row["feasible"] = True
    row["saturated"] = agg.saturated
    row["arrived"] = agg.arrived
    row["completed"] = agg.completed
    row["mean_latency_s"] = agg.mean_latency_s
    row["ci95_latency_s"] = agg.ci95_latency_s
    row["mean_precompute_wait_s"] = agg.mean_precompute_wait_s
    row["mean_queue_wait_s"] = agg.mean_queue_wait_s
    row["mean_online_s"] = agg.mean_online_s
    row["peak_client_storage_bytes"] = max(r.peak_client_storage_bytes for r in agg.runs)
    row["peak_server_storage_bytes"] = max(r.peak_server_storage_bytes for r in agg.runs)
    return {c: row[c] for c in SWEEP_COLUMNS}


def _run_point(args: tuple[PhaseCosts, SimConfig, int]) -> dict[str, object]:
    return sweep_point(*args)


def run_points(
    tasks: Sequence[tuple[PhaseCosts, SimConfig, int]], jobs: int = 1
) -> list[dict[str, object]]:
    """sweep_point for each (costs, config, base_seed) task, in order.

    jobs > 1 distributes the tasks over worker processes.
    """
    if jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(_run_point, tasks))
    return [_run_point(t) for t in tasks]


def run_sweep(
    cost_rows: Sequence[PhaseCosts],
    rates: Sequence[float],
    config: SimConfig,
    base_seed: int = 0,
    jobs: int = 1,
) -> list[dict[str, object]]:
    """Cross every cost row with every arrival rate.

    Per-request records are dropped so large sweeps stay small; jobs > 1
    distributes grid cells over worker processes.
    """
    tasks = []
    for costs in cost_rows:
        for rate in rates:
            cell = dataclasses.replace(config, arrival_rate=rate, keep_records=False)
            tasks.append((costs, cell, base_seed))
    return run_points(tasks, jobs)


def format_value(value: object) -> str:
    """One output cell: floats at .6g, booleans as true/false."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        if math.isinf(value):
            return "inf"
        return format(value, ".6g")
    return str(value)


def write_sweep_csv(rows: Sequence[dict[str, object]], path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SWEEP_COLUMNS)
        for row in rows:
            writer.writerow([format_value(row[c]) for c in SWEEP_COLUMNS])
