"""Per-request schedules and records, per-run summaries, and multi-run aggregation."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..costmodel.types import PhaseCosts
from .config import SimConfig


@dataclass(frozen=True)
class RequestRecord:
    """Timeline of one request.

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

    def records(self) -> tuple[RequestRecord, ...]:
        def cut(t: float) -> float | None:
            return None if math.isnan(t) else t

        return tuple(
            RequestRecord(k, a, r, cut(o), cut(d))
            for k, (a, r, o, d) in enumerate(
                zip(
                    self.arrival.tolist(),
                    self.bundle_ready.tolist(),
                    self.online_start.tolist(),
                    self.done.tolist(),
                )
            )
        )


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
    median_latency_s: float
    p95_latency_s: float
    mean_precompute_wait_s: float
    mean_queue_wait_s: float
    mean_online_s: float
    saturated: bool
    peak_client_storage_bytes: int
    peak_server_storage_bytes: int
    records: tuple[RequestRecord, ...] = field(default_factory=tuple, repr=False)


def _mean(values: np.ndarray) -> float:
    return float(np.mean(values)) if values.size else math.nan


def summarize_run(
    costs: PhaseCosts,
    config: SimConfig,
    seed: int,
    schedule: Schedule,
    saturated: bool,
    peak_client: int,
    peak_server: int,
) -> RunMetrics:
    finished = ~np.isnan(schedule.done)
    arrival = schedule.arrival[finished]
    ready = schedule.bundle_ready[finished]
    online = schedule.online_start[finished]
    done = schedule.done[finished]
    lat = done - arrival
    return RunMetrics(
        protocol=costs.protocol.short,
        model=costs.model,
        dataset=costs.dataset,
        concurrency=config.concurrency,
        arrival_rate=config.arrival_rate,
        horizon_s=config.horizon_s,
        seed=seed,
        arrived=schedule.arrival.size,
        completed=lat.size,
        mean_latency_s=_mean(lat),
        median_latency_s=float(np.median(lat)) if lat.size else math.nan,
        p95_latency_s=float(np.percentile(lat, 95)) if lat.size else math.nan,
        mean_precompute_wait_s=_mean(np.maximum(ready - arrival, 0.0)),
        mean_queue_wait_s=_mean(online - np.maximum(arrival, ready)),
        mean_online_s=_mean(done - online),
        saturated=saturated,
        peak_client_storage_bytes=peak_client,
        peak_server_storage_bytes=peak_server,
        records=schedule.records() if config.keep_records else (),
    )


@dataclass(frozen=True)
class AggregateMetrics:
    """Across-run means with 95% confidence half-widths (1.96 s/sqrt n)."""

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
    runs: tuple[RunMetrics, ...] = field(repr=False, default_factory=tuple)


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
        runs=tuple(runs),
    )
