"""Per-request schedules, per-run summaries, and multi-run aggregation."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..costmodel.types import PhaseCosts
from .config import SimConfig


@dataclass(frozen=True)
class Schedule:
    """Timelines of one run's requests in arrival order, as float64 arrays.

    bundle_ready is inf for a bundle whose build never started;
    online_start and done are NaN where the horizon cut the request off.
    """

    arrival: np.ndarray
    bundle_ready: np.ndarray
    online_start: np.ndarray
    done: np.ndarray


@dataclass(frozen=True)
class RunMetrics:
    protocol: str
    model: str
    dataset: str
    concurrency: str
    arrival_rate: float
    horizon_s: float
    seed: int
    arrived: int
    completed: int
    mean_latency_s: float
    mean_precompute_wait_s: float
    mean_queue_wait_s: float
    mean_online_s: float
    saturated: bool
    peak_client_storage_bytes: int
    peak_server_storage_bytes: int


def summarize_run(
    costs: PhaseCosts,
    config: SimConfig,
    seed: int,
    arrived: int,
    finished: Schedule,
    saturated: bool,
    peak_client: int,
    peak_server: int,
) -> RunMetrics:
    """Summarize a run from its finished requests, a prefix of its schedule.

    The four means are one pairwise sum over each row of a (4, completed)
    stack of latency, precompute wait, queue wait and online time: the
    same sums np.mean makes of each row alone.
    """
    completed = finished.done.size
    terms = np.empty((4, completed))
    lat, pre, que, onl = terms
    np.subtract(finished.done, finished.arrival, out=lat)
    np.subtract(finished.bundle_ready, finished.arrival, out=pre)
    np.maximum(pre, 0.0, out=pre)
    np.maximum(finished.arrival, finished.bundle_ready, out=que)
    np.subtract(finished.online_start, que, out=que)
    np.subtract(finished.done, finished.online_start, out=onl)
    means = (np.add.reduce(terms, axis=1) / completed).tolist() if completed else [math.nan] * 4
    return RunMetrics(
        protocol=costs.protocol.short,
        model=costs.model,
        dataset=costs.dataset,
        concurrency=config.concurrency,
        arrival_rate=config.arrival_rate,
        horizon_s=config.horizon_s,
        seed=seed,
        arrived=arrived,
        completed=completed,
        mean_latency_s=means[0],
        mean_precompute_wait_s=means[1],
        mean_queue_wait_s=means[2],
        mean_online_s=means[3],
        saturated=saturated,
        peak_client_storage_bytes=peak_client,
        peak_server_storage_bytes=peak_server,
    )


@dataclass(frozen=True)
class AggregateMetrics:
    """Across-run means with 95% confidence half-widths (1.96 s/sqrt n);
    peak storage is the largest over the runs."""

    n_runs: int
    arrival_rate: float
    concurrency: str
    protocol: str
    model: str
    dataset: str
    mean_latency_s: float
    ci95_latency_s: float
    mean_precompute_wait_s: float
    ci95_precompute_wait_s: float
    mean_queue_wait_s: float
    mean_online_s: float
    saturated: bool
    arrived: int
    completed: int
    peak_client_storage_bytes: int
    peak_server_storage_bytes: int


def _ci95(values: np.ndarray) -> float:
    if values.size < 2:
        return 0.0
    return float(1.96 * values.std(ddof=1) / math.sqrt(values.size))


def aggregate(runs: list[RunMetrics]) -> AggregateMetrics:
    lat = np.array([r.mean_latency_s for r in runs if not math.isnan(r.mean_latency_s)])
    pre = np.array(
        [r.mean_precompute_wait_s for r in runs if not math.isnan(r.mean_precompute_wait_s)]
    )
    que = np.array([r.mean_queue_wait_s for r in runs if not math.isnan(r.mean_queue_wait_s)])
    onl = np.array([r.mean_online_s for r in runs if not math.isnan(r.mean_online_s)])
    first = runs[0]
    return AggregateMetrics(
        n_runs=len(runs),
        arrival_rate=first.arrival_rate,
        concurrency=first.concurrency,
        protocol=first.protocol,
        model=first.model,
        dataset=first.dataset,
        mean_latency_s=float(lat.mean()) if lat.size else math.nan,
        ci95_latency_s=_ci95(lat),
        mean_precompute_wait_s=float(pre.mean()) if pre.size else math.nan,
        ci95_precompute_wait_s=_ci95(pre),
        mean_queue_wait_s=float(que.mean()) if que.size else math.nan,
        mean_online_s=float(onl.mean()) if onl.size else math.nan,
        saturated=any(r.saturated for r in runs),
        arrived=sum(r.arrived for r in runs),
        completed=sum(r.completed for r in runs),
        peak_client_storage_bytes=max(r.peak_client_storage_bytes for r in runs),
        peak_server_storage_bytes=max(r.peak_server_storage_bytes for r in runs),
    )
