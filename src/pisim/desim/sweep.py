"""Arrival-rate sweeps over cost rows, written as long-format CSV."""

from __future__ import annotations

import csv
import dataclasses
import math
from pathlib import Path
from typing import Sequence

from ..costmodel.types import PhaseCosts
from .config import ConfigInfeasible, SimConfig
from .arrivals import Gaps
from .engine import one_block, run_group, run_key, run_many, stability_limit
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


def _row(costs: PhaseCosts, config: SimConfig,
         result: AggregateMetrics | ConfigInfeasible) -> dict[str, object]:
    """One grid cell from its run_many result, or the reason it has none."""
    row = _point_columns(costs, config)
    if isinstance(result, ConfigInfeasible):
        row.update(_NO_RUNS, feasible=False, failure=str(result))
    else:
        row.update(dataclasses.asdict(result), feasible=True, failure="")
    return {c: row[c] for c in SWEEP_COLUMNS}


def sweep_point(costs: PhaseCosts, config: SimConfig, base_seed: int = 0) -> dict[str, object]:
    """One grid cell: n_runs realizations of one (costs, rate) pair."""
    try:
        result = run_many(costs, config, base_seed)
    except ConfigInfeasible as exc:
        result = exc
    return _row(costs, config, result)


def _run_group(
    group: Sequence[tuple[PhaseCosts, SimConfig, int]], gaps: Gaps | None = None
) -> list[dict[str, object]]:
    """The cells of run_group's points; a group with an infeasible task
    is that task alone."""
    try:
        results = run_group([(costs, config) for costs, config, _ in group], group[0][2], gaps)
    except ConfigInfeasible as exc:
        results = [exc]
    return [_row(costs, config, result) for (costs, config, _), result in zip(group, results)]


def run_points(
    tasks: Sequence[tuple[PhaseCosts, SimConfig, int]], jobs: int = 1
) -> list[dict[str, object]]:
    """sweep_point for each (costs, config, base_seed) task, in order.

    Feasible tasks with equal engine.run_key (costs, rate, horizon, run
    count, concurrency, base seed and, when pipelined, capacity_bundles)
    are simulated once; each row keeps its own _point_columns. An
    infeasible task has no key and runs alone, so its failure names its
    own capacities. The distinct tasks whose keys differ only in costs
    read one arrival draw: when their runs fit one block together
    (engine.one_block), they form a group that one run_group call draws
    once and advances as one matrix, bitwise as each would alone; a larger
    group's tasks run one at a time. jobs > 1 distributes the groups over
    worker processes. With jobs == 1 the call keeps the Gaps of the last
    seed range it drew and passes them to each feasible group that fits
    one block, so a seed range's seeds are hashed and their gaps drawn
    once while its groups run back to back.
    """
    first: dict[tuple, int] = {}
    distinct: list[tuple[PhaseCosts, SimConfig, int]] = []
    shared_by = []
    by_draw: dict[object, list[int]] = {}
    for task in tasks:
        key = run_key(*task)
        index = len(distinct) if key is None else first.setdefault(key, len(distinct))
        if index == len(distinct):
            distinct.append(task)
            by_draw.setdefault(index if key is None else key[1:], []).append(index)
        shared_by.append(index)
    order = []
    for members in by_draw.values():
        fits = one_block(distinct[members[0]][1], len(members))
        order += [members] if fits else [[i] for i in members]
    order.sort()  # each group runs where its first task would
    groups = [[distinct[i] for i in group] for group in order]
    if jobs > 1 and len(groups) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            done = list(pool.map(_run_group, groups))
    else:
        done, kept = [], {}
        for group in groups:
            costs, config, seed = group[0]
            gaps = None
            if run_key(costs, config) is not None and one_block(config, len(group)):
                seeds = range(seed, seed + config.n_runs)
                if seeds not in kept:
                    kept = {seeds: Gaps(seeds)}
                gaps = kept[seeds]
            done.append(_run_group(group, gaps))
    shared = {i: row for group, rows in zip(order, done) for i, row in zip(group, rows)}
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
