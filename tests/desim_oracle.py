"""Reference serving engine for the equivalence tests.

An event-by-event simulation: the serial loop builds one RequestRecord per
request, and the pipelined engine pops arrival, bundle-completion and
online-completion events from a heap. Runs are summarized by reading the
records back through their properties into one RunMetrics each, and a
point's runs are aggregated from a list of those. `pisim.desim.engine`
must match it exactly on every request and every summary statistic.

It also keeps the engine's per-run arrival draw and run summary as they
were before runs were drawn and summarized a block at a time: one
generator per seed, each run's times padded with inf into the columns of
one matrix, and one four-term stack per run's finished prefix.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from pisim.costmodel.types import PhaseCosts
from pisim.desim.config import SERIAL, ConfigInfeasible, SimConfig
from pisim.desim.engine import (
    _bundle_bytes,
    _check_feasible,
    capacity_bundles,
    stability_limit,
)
from pisim.desim.metrics import AggregateMetrics, Schedule

# Heap tie-break priorities at equal timestamps. Bundle completions are
# visible to arrivals in the same instant, and a finished online slot is
# reusable before the next arrival is admitted.
_OFFLINE_DONE = 0
_ONLINE_DONE = 1
_ARRIVAL = 2


def draw_size(rate: float, horizon_s: float) -> int:
    expected = rate * horizon_s
    return max(16, int(expected + 4 * np.sqrt(expected) + 16))


def poisson_arrival_times(
    rng: np.random.Generator, rate: float, horizon_s: float
) -> np.ndarray:
    """One run's arrival instants on [0, horizon), drawn in segments of
    draw_size gaps, each cumsummed alone and offset by the last time."""
    if rate <= 0:
        return np.empty(0, dtype=np.float64)
    block = draw_size(rate, horizon_s)
    times = np.cumsum(rng.exponential(1.0 / rate, size=block))
    while times.size and times[-1] < horizon_s:
        more = np.cumsum(rng.exponential(1.0 / rate, size=block)) + times[-1]
        times = np.concatenate([times, more])
    return times[times < horizon_s]


def draw_arrivals(rate: float, horizon_s: float, seed: int) -> np.ndarray:
    return poisson_arrival_times(np.random.default_rng(seed), rate, horizon_s)


def pad(arrivals: list[np.ndarray]) -> np.ndarray:
    """The runs' arrivals as the columns of one matrix, padded with inf."""
    matrix = np.full((max(a.size for a in arrivals), len(arrivals)), math.inf)
    for column, a in zip(matrix.T, arrivals):
        column[: a.size] = a
    return matrix


def summarize_run(finished: Schedule) -> np.ndarray:
    """The four means of a run's finished requests, a prefix of its
    schedule, as one pairwise sum over each row of a (4, completed) stack;
    all NaN when none finished."""
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
class RequestRecord:
    """Timeline of one request, the reference engine's output.

    bundle_ready_s is when its precompute bundle finished building,
    which can precede arrival. done_s is None when the run's horizon
    cut the request off.
    """

    index: int
    arrival_s: float
    bundle_ready_s: float
    online_start_s: float | None
    done_s: float | None

    @property
    def finished(self) -> bool:
        return self.done_s is not None

    @property
    def latency_s(self) -> float:
        if self.done_s is None:
            return math.nan
        return self.done_s - self.arrival_s

    @property
    def precompute_wait_s(self) -> float:
        return max(0.0, self.bundle_ready_s - self.arrival_s)

    @property
    def queue_wait_s(self) -> float:
        if self.online_start_s is None:
            return math.nan
        return self.online_start_s - max(self.arrival_s, self.bundle_ready_s)

    @property
    def online_s(self) -> float:
        if self.done_s is None or self.online_start_s is None:
            return math.nan
        return self.done_s - self.online_start_s


def simulate_serial(
    arrivals: np.ndarray, off: float, on: float, horizon: float
) -> tuple[list[RequestRecord], int]:
    """Records and peak live bundles of a serial run."""
    records: list[RequestRecord] = []
    t_free = 0.0
    for k, a in enumerate(arrivals):
        start = max(float(a), t_free)
        ready = start + off
        done = ready + on
        t_free = done
        records.append(
            RequestRecord(
                index=k,
                arrival_s=float(a),
                bundle_ready_s=ready,
                online_start_s=ready if ready <= horizon else None,
                done_s=done if done <= horizon else None,
            )
        )
    return records, 1 if records else 0


def simulate_pipelined(
    arrivals: np.ndarray, off: float, on: float, cap: float, horizon: float
) -> tuple[list[RequestRecord], int]:
    """Records and peak live bundles of a pipelined run."""
    if cap < 1:
        raise ConfigInfeasible("storage capacity cannot hold a single bundle")
    n = len(arrivals)

    heap: list[tuple[float, int, int, int]] = []
    seq = 0
    for k, a in enumerate(arrivals):
        heap.append((float(a), _ARRIVAL, seq, k))
        seq += 1
    heapq.heapify(heap)

    started = 0  # builds begun (never more than n in total)
    built = 0  # builds finished
    consumed = 0  # bundles released to online starts
    ready_times: list[float] = []
    pending: deque[int] = deque()
    server_free = True
    online_start: list[float | None] = [None] * n
    done: list[float | None] = [None] * n
    peak_live = 0

    def start_builds(t: float) -> None:
        nonlocal started, seq, peak_live
        while started < n and started - consumed < cap:
            ready_times.append(t + off)
            heapq.heappush(heap, (t + off, _OFFLINE_DONE, seq, started))
            seq += 1
            started += 1
            peak_live = max(peak_live, started - consumed)

    def serve(t: float) -> None:
        nonlocal server_free, consumed, seq
        while server_free and pending and built > consumed:
            k = pending.popleft()
            online_start[k] = t
            consumed += 1
            start_builds(t)
            server_free = False
            heapq.heappush(heap, (t + on, _ONLINE_DONE, seq, k))
            seq += 1

    start_builds(0.0)
    while heap:
        t, prio, _, k = heapq.heappop(heap)
        if t > horizon:
            break
        if prio == _OFFLINE_DONE:
            built += 1
            serve(t)
        elif prio == _ONLINE_DONE:
            done[k] = t
            server_free = True
            serve(t)
        else:
            pending.append(k)
            serve(t)

    records = [
        RequestRecord(
            index=k,
            arrival_s=float(arrivals[k]),
            bundle_ready_s=ready_times[k] if k < len(ready_times) else math.inf,
            online_start_s=online_start[k],
            done_s=done[k],
        )
        for k in range(n)
    ]
    return records, peak_live


@dataclass(frozen=True)
class RunMetrics:
    """One run's summary."""

    arrived: int
    completed: int
    mean_latency_s: float
    mean_precompute_wait_s: float
    mean_queue_wait_s: float
    mean_online_s: float
    saturated: bool
    peak_client_storage_bytes: int
    peak_server_storage_bytes: int


def summarize_records(
    records: list[RequestRecord], saturated: bool, peak_client: int, peak_server: int
) -> RunMetrics:
    done = [r for r in records if r.finished]
    lat = np.array([r.latency_s for r in done]) if done else np.empty(0)

    def mean_of(vals) -> float:
        return float(np.mean(vals)) if len(vals) else math.nan

    return RunMetrics(
        arrived=len(records),
        completed=len(done),
        mean_latency_s=mean_of(lat),
        mean_precompute_wait_s=mean_of([r.precompute_wait_s for r in done]),
        mean_queue_wait_s=mean_of([r.queue_wait_s for r in done]),
        mean_online_s=mean_of([r.online_s for r in done]),
        saturated=saturated,
        peak_client_storage_bytes=peak_client,
        peak_server_storage_bytes=peak_server,
    )


def _ci95(values: np.ndarray) -> float:
    if values.size < 2:
        return 0.0
    return float(1.96 * values.std(ddof=1) / math.sqrt(values.size))


def aggregate(runs: list[RunMetrics]) -> AggregateMetrics:
    """Across-run means and 95% half-widths over the runs whose means are
    not NaN, from lists of the runs' fields; peak storage is the largest."""
    lat = np.array([r.mean_latency_s for r in runs if not math.isnan(r.mean_latency_s)])
    pre = np.array(
        [r.mean_precompute_wait_s for r in runs if not math.isnan(r.mean_precompute_wait_s)]
    )
    que = np.array([r.mean_queue_wait_s for r in runs if not math.isnan(r.mean_queue_wait_s)])
    onl = np.array([r.mean_online_s for r in runs if not math.isnan(r.mean_online_s)])
    return AggregateMetrics(
        saturated=any(r.saturated for r in runs),
        arrived=sum(r.arrived for r in runs),
        completed=sum(r.completed for r in runs),
        mean_latency_s=float(lat.mean()) if lat.size else math.nan,
        ci95_latency_s=_ci95(lat),
        mean_precompute_wait_s=float(pre.mean()) if pre.size else math.nan,
        mean_queue_wait_s=float(que.mean()) if que.size else math.nan,
        mean_online_s=float(onl.mean()) if onl.size else math.nan,
        peak_client_storage_bytes=max(r.peak_client_storage_bytes for r in runs),
        peak_server_storage_bytes=max(r.peak_server_storage_bytes for r in runs),
    )


def simulate(costs: PhaseCosts, config: SimConfig, seed: int = 0) -> RunMetrics:
    """One run's summary from the reference engine."""
    _check_feasible(costs, config)
    arrivals = draw_arrivals(config.arrival_rate, config.horizon_s, seed)
    off = costs.offline_latency_s
    on = costs.online_latency_s
    if config.concurrency == SERIAL:
        records, peak = simulate_serial(arrivals, off, on, config.horizon_s)
    else:
        cap = capacity_bundles(costs, config)
        records, peak = simulate_pipelined(arrivals, off, on, cap, config.horizon_s)
    client_b, server_b = _bundle_bytes(costs)
    saturated = config.arrival_rate > stability_limit(costs, config)
    return summarize_records(records, saturated, peak * client_b, peak * server_b)


def run_many(costs: PhaseCosts, config: SimConfig, base_seed: int = 0) -> AggregateMetrics:
    """Drop-in for `pisim.desim.engine.run_many` built on the reference engine."""
    runs = [simulate(costs, config, base_seed + i) for i in range(config.n_runs)]
    return aggregate(runs)
