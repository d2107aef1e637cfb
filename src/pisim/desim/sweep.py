"""Arrival-rate sweeps over cost rows, written as long-format CSV."""

from __future__ import annotations

import csv
import dataclasses
import math
from pathlib import Path
from typing import Sequence

from .._numpy import np
from ..costmodel.types import PhaseCosts
from .config import ConfigInfeasible, SimConfig
from .engine import run_group, run_key, run_many, stability_limit
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


def _run_chunk(chunk: Sequence[tuple[PhaseCosts, SimConfig, int]]) -> list[dict[str, object]]:
    """The cells of feasible tasks of one seed range, from one run_group call."""
    results = run_group([(costs, config) for costs, config, _ in chunk], chunk[0][2])
    return [_row(costs, config, result) for (costs, config, _), result in zip(chunk, results)]


def run_points(
    tasks: Sequence[tuple[PhaseCosts, SimConfig, int]], jobs: int = 1
) -> list[dict[str, object]]:
    """sweep_point for each (costs, config, base_seed) task, in order.

    Feasible tasks with equal engine.run_key (costs, rate, horizon, run
    count, concurrency, base seed and, when pipelined, capacity_bundles)
    are simulated once; each row keeps its own _point_columns. An
    infeasible task has no key and takes sweep_point's row, so its failure
    names its own capacities. The distinct tasks of one seed range (base
    seed and run count) run in one run_group call, which hashes and draws
    each block of seeds once for every draw group (tasks whose keys differ
    only in costs). jobs > 1 deals each seed range's whole draw groups
    round-robin into at most jobs chunks, each one run_group call, and runs
    the chunks in at most that many worker processes.
    """
    keys = [run_key(*task) for task in tasks]
    distinct: dict[tuple, tuple[PhaseCosts, SimConfig, int]] = {}
    ranges: dict[tuple, dict[tuple, list[tuple]]] = {}
    for key, task in zip(keys, tasks):
        if key is not None and key not in distinct:
            distinct[key] = task
            # key[1:] is (rate, horizon, run count, concurrency, base seed, bundles)
            ranges.setdefault((key[3], key[5]), {}).setdefault(key[1:], []).append(key)
    order = []
    for groups in ranges.values():
        dealt = [[] for _ in range(min(jobs, len(groups)))]
        for i, group in enumerate(groups.values()):
            dealt[i % len(dealt)] += group
        order += dealt
    chunks = [[distinct[key] for key in chunk] for chunk in order]
    if jobs > 1 and len(chunks) > 1:
        from concurrent.futures import ProcessPoolExecutor

        # load numpy before the pool forks: each worker inherits it, not imports it again
        np.ndarray
        with ProcessPoolExecutor(max_workers=min(jobs, len(chunks))) as pool:
            done = list(pool.map(_run_chunk, chunks))
    else:
        done = list(map(_run_chunk, chunks))
    shared = {key: row for chunk, rows in zip(order, done) for key, row in zip(chunk, rows)}
    return [
        sweep_point(*task) if key is None else {**shared[key], **_point_columns(*task[:2])}
        for key, task in zip(keys, tasks)
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
