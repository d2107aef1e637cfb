"""Per-request schedules, per-run means, and their aggregation over a point's runs."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .._numpy import np


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
SUMMARY_ELEMENTS = 1 << 13


def summarize_run(
    arrival: np.ndarray, ready: np.ndarray, start: np.ndarray, on: float | np.ndarray,
    horizon: float,
) -> tuple[np.ndarray, list[int]]:
    """The four means of each row of a block and how many of its requests
    finished by the horizon.

    Takes a block's (runs, requests) arrivals, row r run r's (inf past its
    last), and (rows, requests) bundle-ready and online-start times, rows
    a multiple of runs: a draw group's members, each stepped over the same
    runs. Row i reads arrival row i % runs and on[i] (on is a scalar or one
    value per row). A request finishes at its online start plus on, the
    one add the step recurrences make. Finish times never decrease, so a
    row's finished requests are a prefix of it, and its count is found by
    a binary search. The means are latency, precompute wait, queue wait
    and online time over that prefix, all NaN when none finished; row i's
    are column i of the (4, rows) result.

    The rows are taken in order of their counts (a stable argsort), and
    the terms are computed a few of them at a time, at most
    SUMMARY_ELEMENTS per term or one row, each up to the largest count
    among them, so memory stays small. Each stretch of rows with the same
    count k is one np.add.reduce over the terms' first k columns. So each
    row's sum is still one contiguous pairwise sum of its k terms, the sum
    np.mean makes of each term of the run alone, divided by k.
    np.add.reduceat is not used: it sums each segment sequentially, which
    rounds differently from the pairwise sum for segments of three or more.
    """
    rows, width = start.shape
    on = np.broadcast_to(on, (rows,))
    every = np.arange(rows)
    # bit by bit, each row's count grows while the finish time just
    # before it is within the horizon
    completed = np.zeros(rows, dtype=np.intp)
    for bit in reversed([1 << i for i in range(width.bit_length())]):
        k = np.minimum(completed + bit, width)
        np.copyto(completed, k, where=start[every, k - 1] + on <= horizon)
    order = np.argsort(completed, kind="stable")
    counts = completed[order].tolist()
    rows_of, on_of = order % arrival.shape[0], on[order, None]
    sums = np.full((4, rows), math.nan)  # column j sums row order[j]'s terms
    step = max(1, SUMMARY_ELEMENTS // max(width, 1))
    terms = np.empty((4, min(step, rows), width))
    # past a row's prefix, inf - inf is NaN and read by no mean
    with np.errstate(invalid="ignore"):
        # rows with none finished come first and stay NaN
        for lo in range(counts.count(0), rows, step):
            hi = min(lo + step, rows)
            w = counts[hi - 1]
            idx = order[lo:hi]
            a, o = arrival[rows_of[lo:hi], :w], start[idx, :w]
            b = o if ready is start else ready[idx, :w]  # one matrix when serial
            lat, pre, que, onl = terms[:, : hi - lo, :w]
            np.add(o, on_of[lo:hi], out=onl)
            np.subtract(onl, a, out=lat)
            np.subtract(onl, o, out=onl)
            np.subtract(b, a, out=pre)
            np.maximum(pre, 0.0, out=pre)
            np.maximum(a, b, out=que)
            np.subtract(o, que, out=que)
            s = lo  # the first row of a stretch of one count
            for e in range(lo + 1, hi + 1):
                if e == hi or counts[e] != counts[s]:
                    stretch = terms[:, s - lo : e - lo, : counts[s]]
                    np.add.reduce(stretch, axis=-1, out=sums[:, s:e])
                    s = e
    means = np.empty_like(sums)
    means[:, order] = sums / completed[order]  # a row with none finished stays NaN
    return means, completed.tolist()


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
