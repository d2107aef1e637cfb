"""Per-request schedules, per-run means, and their aggregation over a point's runs."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


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


def summarize_run(finished: Schedule) -> np.ndarray:
    """The four means of a run's finished requests, a prefix of its
    schedule: latency, precompute wait, queue wait and online time, all NaN
    when none finished.

    They are one pairwise sum over each row of a (4, completed) stack of
    the four terms: the same sums np.mean makes of each row alone.
    """
    completed = finished.done.size
    if not completed:
        return np.full(4, math.nan)
    terms = np.empty((4, completed))
    lat, pre, que, onl = terms
    np.subtract(finished.done, finished.arrival, out=lat)
    np.subtract(finished.bundle_ready, finished.arrival, out=pre)
    np.maximum(pre, 0.0, out=pre)
    np.maximum(finished.arrival, finished.bundle_ready, out=que)
    np.subtract(finished.online_start, que, out=que)
    np.subtract(finished.done, finished.online_start, out=onl)
    return np.add.reduce(terms, axis=1) / completed


@dataclass(frozen=True)
class AggregateMetrics:
    """A sweep point's runs: across-run means with a 95% confidence
    half-width (1.96 s/sqrt n) for latency, request totals and peak
    storage. Each field is the sweep column of its name."""

    saturated: bool
    arrived: int
    completed: int
    mean_latency_s: float
    ci95_latency_s: float
    mean_precompute_wait_s: float
    mean_queue_wait_s: float
    mean_online_s: float
    peak_client_storage_bytes: int
    peak_server_storage_bytes: int


def _mean(values: np.ndarray) -> float:
    return float(values.mean()) if values.size else math.nan


def _ci95(values: np.ndarray) -> float:
    if values.size < 2:
        return 0.0
    return float(1.96 * values.std(ddof=1) / math.sqrt(values.size))


def aggregate(
    means: np.ndarray,
    arrived: int,
    completed: int,
    saturated: bool,
    peak_client: int,
    peak_server: int,
) -> AggregateMetrics:
    """Aggregate a (4, runs) array whose columns are the runs' four means,
    in summarize_run's order. A run in which nothing completed has NaN
    means and is left out of each row's mean and half-width; the other
    arguments are the point's totals and peaks, passed through.

    Each row's NaN-free copy is a contiguous array, so its mean and
    deviation are the pairwise sums np.array of a list of the same values
    gives.
    """
    lat, pre, que, onl = (row[~np.isnan(row)] for row in means)
    return AggregateMetrics(
        saturated=saturated,
        arrived=arrived,
        completed=completed,
        mean_latency_s=_mean(lat),
        ci95_latency_s=_ci95(lat),
        mean_precompute_wait_s=_mean(pre),
        mean_queue_wait_s=_mean(que),
        mean_online_s=_mean(onl),
        peak_client_storage_bytes=peak_client,
        peak_server_storage_bytes=peak_server,
    )
