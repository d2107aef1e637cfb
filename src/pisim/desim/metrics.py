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


# Most elements of the four terms summarize_run computes per ufunc call.
SUMMARY_ELEMENTS = 1 << 12


def summarize_run(
    arrival: np.ndarray, ready: np.ndarray, start: np.ndarray, on: float, horizon: float
) -> tuple[np.ndarray, list[int]]:
    """The four means of each run of a block and how many of its requests
    finished by the horizon.

    Takes (runs, requests) times, row r run r's arrivals (inf past its
    last), bundle-ready and online-start times. A request finishes at its
    online start plus on, the one add the step recurrences make. Finish
    times never decrease, so a run's finished requests are a prefix of its
    row. Its means are latency, precompute wait, queue wait and online
    time over that prefix, all NaN when none finished.

    The terms are computed a few runs at a time, at most SUMMARY_ELEMENTS
    per term or one run, so memory stays small. Each run's means are one
    np.add.reduce over each term's contiguous prefix, divided by its
    length: the pairwise sums np.mean makes of each term of the run alone.
    np.add.reduceat is not used: it sums each segment sequentially, which
    rounds differently from the pairwise sum for segments of three or more.
    """
    runs, width = arrival.shape
    means = np.full((4, runs), math.nan)
    completed = []
    step = max(1, SUMMARY_ELEMENTS // max(width, 1))
    terms = np.empty((4, min(step, runs), width))
    for lo in range(0, runs, step):
        hi = min(lo + step, runs)
        finish = terms[3, : hi - lo]
        np.add(start[lo:hi], on, out=finish)
        done = np.count_nonzero(finish <= horizon, axis=1).tolist()
        completed += done
        w = max(done)
        if not w:
            continue
        a, b, o = arrival[lo:hi, :w], ready[lo:hi, :w], start[lo:hi, :w]
        lat, pre, que, onl = terms[:, : hi - lo, :w]
        # past a run's prefix, inf - inf is NaN and read by no mean
        with np.errstate(invalid="ignore"):
            np.subtract(onl, a, out=lat)  # onl holds the finish times
            np.subtract(onl, o, out=onl)
            np.subtract(b, a, out=pre)
            np.maximum(pre, 0.0, out=pre)
            np.maximum(a, b, out=que)
            np.subtract(o, que, out=que)
        for i, k in enumerate(done):
            if k:
                np.add.reduce(terms[:, i, :k], axis=1, out=means[:, lo + i])
    means /= completed  # a run with none finished stays NaN
    return means, completed


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
