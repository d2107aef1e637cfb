"""Reference serving engine for the equivalence tests.

An event-by-event simulation: the serial loop builds one RequestRecord per
request, and the pipelined engine pops arrival, bundle-completion and
online-completion events from a heap. Runs are summarized by reading the
records back through their properties. `pisim.desim.engine` must match it
exactly on every request and every summary statistic.
"""

from __future__ import annotations

import heapq
import math
from collections import deque

import numpy as np

from pisim.costmodel.types import PhaseCosts
from pisim.desim.arrivals import poisson_arrival_times
from pisim.desim.config import SERIAL, ConfigInfeasible, SimConfig
from pisim.desim.engine import (
    _bundle_bytes,
    _check_feasible,
    capacity_bundles,
    stability_limit,
)
from pisim.desim.metrics import RequestRecord, RunMetrics

# Heap tie-break priorities at equal timestamps. Bundle completions are
# visible to arrivals in the same instant, and a finished online slot is
# reusable before the next arrival is admitted.
_OFFLINE_DONE = 0
_ONLINE_DONE = 1
_ARRIVAL = 2


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


def summarize_records(
    costs: PhaseCosts,
    config: SimConfig,
    seed: int,
    records: list[RequestRecord],
    saturated: bool,
    peak_client: int,
    peak_server: int,
) -> RunMetrics:
    done = [r for r in records if r.finished]
    lat = np.array([r.latency_s for r in done]) if done else np.empty(0)

    def mean_of(vals) -> float:
        return float(np.mean(vals)) if len(vals) else math.nan

    return RunMetrics(
        protocol=costs.protocol.short,
        model=costs.model,
        dataset=costs.dataset,
        concurrency=config.concurrency,
        arrival_rate=config.arrival_rate,
        horizon_s=config.horizon_s,
        seed=seed,
        arrived=len(records),
        completed=len(done),
        mean_latency_s=mean_of(lat),
        median_latency_s=float(np.median(lat)) if len(lat) else math.nan,
        p95_latency_s=float(np.percentile(lat, 95)) if len(lat) else math.nan,
        mean_precompute_wait_s=mean_of([r.precompute_wait_s for r in done]),
        mean_queue_wait_s=mean_of([r.queue_wait_s for r in done]),
        mean_online_s=mean_of([r.online_s for r in done]),
        saturated=saturated,
        peak_client_storage_bytes=peak_client,
        peak_server_storage_bytes=peak_server,
        records=tuple(records) if config.keep_records else (),
    )


def simulate(costs: PhaseCosts, config: SimConfig, seed: int = 0) -> RunMetrics:
    """Drop-in for `pisim.desim.engine.simulate` built on the reference engine."""
    _check_feasible(costs, config)
    rng = np.random.default_rng(seed)
    arrivals = poisson_arrival_times(rng, config.arrival_rate, config.horizon_s)
    off = costs.offline_latency_s
    on = costs.online_latency_s
    if config.concurrency == SERIAL:
        records, peak = simulate_serial(arrivals, off, on, config.horizon_s)
    else:
        cap = capacity_bundles(costs, config)
        records, peak = simulate_pipelined(arrivals, off, on, cap, config.horizon_s)
    client_b, server_b = _bundle_bytes(costs)
    saturated = config.arrival_rate > stability_limit(costs, config)
    return summarize_records(
        costs, config, seed, records, saturated, peak * client_b, peak * server_b
    )
