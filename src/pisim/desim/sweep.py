"""Arrival-rate sweeps over cost rows, written as long-format CSV."""

from __future__ import annotations

import csv
import dataclasses
import math
from pathlib import Path
from typing import Sequence

from ..costmodel.types import PhaseCosts
from .config import ConfigInfeasible, SimConfig
from .engine import run_key, run_many, seeding, stability_limit
from .metrics import AggregateMetrics

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

# The run columns of a cell whose storage cannot hold one bundle.
_NO_RUNS = dataclasses.asdict(AggregateMetrics(
    saturated=False, arrived=0, completed=0,
    mean_latency_s=math.nan, ci95_latency_s=math.nan, mean_precompute_wait_s=math.nan,
    mean_queue_wait_s=math.nan, mean_online_s=math.nan,
    peak_client_storage_bytes=0, peak_server_storage_bytes=0,
))


def _point_columns(costs: PhaseCosts, config: SimConfig) -> dict[str, object]:
    """The columns a cell takes from its own costs and config, not its runs."""
    return {
        "protocol": costs.protocol.short,
        "model": costs.model,
        "dataset": costs.dataset,
        "concurrency": config.concurrency,
        "arrival_rate": config.arrival_rate,
        "n_runs": config.n_runs,
        "horizon_s": config.horizon_s,
        "client_capacity_bytes": config.client_capacity_bytes,
        "server_capacity_bytes": config.server_capacity_bytes,
        "offline_latency_s": costs.offline_latency_s,
        "online_latency_s": costs.online_latency_s,
        "stability_limit": stability_limit(costs, config),
    }


def sweep_point(costs: PhaseCosts, config: SimConfig, base_seed: int = 0) -> dict[str, object]:
    """One grid cell: n_runs realizations of one (costs, rate) pair."""
    row = _point_columns(costs, config)
    try:
        row.update(dataclasses.asdict(run_many(costs, config, base_seed)), feasible=True,
                   failure="")
    except ConfigInfeasible as exc:
        row.update(_NO_RUNS, feasible=False, failure=str(exc))
    return {c: row[c] for c in SWEEP_COLUMNS}


def _run_point(args: tuple[PhaseCosts, SimConfig, int]) -> dict[str, object]:
    return sweep_point(*args)


def run_points(
    tasks: Sequence[tuple[PhaseCosts, SimConfig, int]], jobs: int = 1
) -> list[dict[str, object]]:
    """sweep_point for each (costs, config, base_seed) task, in order.

    Feasible tasks with equal engine.run_key (costs, rate, horizon, run
    count, concurrency, base seed and, when pipelined, capacity_bundles)
    share one sweep_point call; each row keeps its own _point_columns. An
    infeasible task has no key and runs alone, so its failure names its
    own capacities. jobs > 1 distributes the distinct tasks over worker
    processes. Within the call the one-block points of one seed range
    hash each seed once and draw its gaps once (engine.seeding).
    """
    first: dict[tuple, int] = {}
    distinct: list[tuple[PhaseCosts, SimConfig, int]] = []
    shared_by = []
    for task in tasks:
        key = run_key(*task)
        index = len(distinct) if key is None else first.setdefault(key, len(distinct))
        if index == len(distinct):
            distinct.append(task)
        shared_by.append(index)
    with seeding():
        if jobs > 1 and len(distinct) > 1:
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=jobs) as pool:
                shared = list(pool.map(_run_point, distinct))
        else:
            shared = [_run_point(t) for t in distinct]
    return [
        {**shared[index], **_point_columns(costs, config)}
        for index, (costs, config, _) in zip(shared_by, tasks)
    ]


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
