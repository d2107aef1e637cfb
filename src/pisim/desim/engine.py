"""Serving engine for offline/online serving with precompute bundles.

Two concurrency modes:

serial: one machine pair runs the offline phase then the online phase for
each request back to back. At most one bundle exists at a time, so storage
capacity never limits throughput.

pipelined: offline bundle builds run in parallel, limited only by how many
finished-but-unconsumed bundles fit in storage. Bundles are consumed in
FIFO order (k-th request uses k-th bundle) and the online phase is served
by a single resource. Storage is reserved when a build starts and released
when the bundle's request begins its online phase.

Both modes are recurrences in the request index k (Lindley 1952; Baccelli
et al., Synchronization and Linearity, 1992), evaluated in one pass over
the arrival times into float64 arrays. The serial pass keeps the operation
order start = max(a_k, t_free), ready = start + off, t_free = ready + on,
so its sums round exactly as an event-by-event simulation does.

The pipelined model makes two assumptions that shape its output:

- Bundles are built only for the n requests that arrive within the
  horizon, so the engine knows the future arrival count.
- The first min(n, cap) builds all start at t = 0, so the peak storage of
  a pipelined run is always min(arrived, cap) bundles.
"""

from __future__ import annotations

import math

import numpy as np

from ..costmodel.types import PhaseCosts
from .arrivals import poisson_arrival_times
from .config import SERIAL, ConfigInfeasible, SimConfig
from .metrics import AggregateMetrics, RunMetrics, Schedule, aggregate, summarize_run


def _bundle_bytes(costs: PhaseCosts) -> tuple[int, int]:
    return costs.client_storage_delta_bytes, costs.server_storage_delta_bytes


def capacity_bundles(costs: PhaseCosts, config: SimConfig) -> float:
    """How many unconsumed bundles fit in storage; math.inf when unbounded."""
    client_b, server_b = _bundle_bytes(costs)
    cap = math.inf
    if server_b > 0:
        cap = min(cap, math.floor(config.server_capacity_bytes / server_b))
    if config.client_capacity_bytes is not None and client_b > 0:
        cap = min(cap, math.floor(config.client_capacity_bytes / client_b))
    return cap


def _check_feasible(costs: PhaseCosts, config: SimConfig) -> None:
    client_b, server_b = _bundle_bytes(costs)
    if server_b > config.server_capacity_bytes:
        raise ConfigInfeasible(
            f"one bundle needs {server_b} server bytes but capacity is "
            f"{config.server_capacity_bytes:.3g}"
        )
    if config.client_capacity_bytes is not None and client_b > config.client_capacity_bytes:
        raise ConfigInfeasible(
            f"one bundle needs {client_b} client bytes but capacity is "
            f"{config.client_capacity_bytes:.3g}"
        )


def stability_limit(costs: PhaseCosts, config: SimConfig) -> float:
    """Largest arrival rate the configuration can sustain long-run.

    Serial service handles one request per offline+online span. Pipelined
    service is limited by bundle throughput (capacity / offline time) or by
    the single online resource, whichever binds first.
    """
    off = costs.offline_latency_s
    on = costs.online_latency_s
    if config.concurrency == SERIAL:
        total = off + on
        return math.inf if total <= 0 else 1.0 / total
    cap = capacity_bundles(costs, config)
    build_rate = math.inf if off <= 0 or math.isinf(cap) else cap / off
    online_rate = math.inf if on <= 0 else 1.0 / on
    return min(build_rate, online_rate)


def serial_schedule(
    arrivals: np.ndarray, off: float, on: float, horizon: float
) -> tuple[Schedule, int]:
    """Lindley's recursion, run to the last arrival; returns the schedule
    and the peak count of live bundles."""
    ready = []
    t_free = 0.0
    for a in arrivals.tolist():
        t_ready = (a if a > t_free else t_free) + off
        ready.append(t_ready)
        t_free = t_ready + on
    bundle_ready = np.array(ready, dtype=np.float64)
    finish = bundle_ready + on
    schedule = Schedule(
        arrival=arrivals,
        bundle_ready=bundle_ready,
        online_start=np.where(bundle_ready <= horizon, bundle_ready, math.nan),
        done=np.where(finish <= horizon, finish, math.nan),
    )
    return schedule, min(len(ready), 1)


def pipelined_schedule(
    arrivals: np.ndarray, off: float, on: float, cap: float, horizon: float
) -> tuple[Schedule, int]:
    """Max-plus recurrence over FIFO bundles; returns the schedule and the
    peak count of live bundles.

    Bundle k starts building when request k - cap starts online (at t = 0
    for the first cap), and request k starts online at
    o_k = max(a_k, ready_k, done_{k-1}). Nothing starts after the first
    online start or completion past the horizon.
    """
    if cap < 1:
        raise ConfigInfeasible("storage capacity cannot hold a single bundle")
    times = arrivals.tolist()
    n = len(times)
    first = int(min(n, cap))
    ready = [off] * first + [math.inf] * (n - first)
    online = [math.nan] * n
    done = [math.nan] * n
    t_free = 0.0
    for k, a in enumerate(times):
        o = max(a, ready[k], t_free)
        if o > horizon:
            break
        online[k] = o
        if k + cap < n:
            ready[k + cap] = o + off
        t_free = o + on
        if t_free > horizon:
            break
        done[k] = t_free
    schedule = Schedule(
        arrival=arrivals,
        bundle_ready=np.array(ready, dtype=np.float64),
        online_start=np.array(online, dtype=np.float64),
        done=np.array(done, dtype=np.float64),
    )
    return schedule, first


def simulate(costs: PhaseCosts, config: SimConfig, seed: int = 0) -> RunMetrics:
    """Run one arrival realization and summarize it.

    The same seed always produces the same arrival times and therefore the
    same schedule; both phases are deterministic given the arrivals.
    """
    _check_feasible(costs, config)
    rng = np.random.default_rng(seed)
    arrivals = poisson_arrival_times(rng, config.arrival_rate, config.horizon_s)
    off = costs.offline_latency_s
    on = costs.online_latency_s
    if config.concurrency == SERIAL:
        schedule, peak = serial_schedule(arrivals, off, on, config.horizon_s)
    else:
        cap = capacity_bundles(costs, config)
        schedule, peak = pipelined_schedule(arrivals, off, on, cap, config.horizon_s)
    client_b, server_b = _bundle_bytes(costs)
    saturated = config.arrival_rate > stability_limit(costs, config)
    return summarize_run(
        costs, config, seed, schedule, saturated, peak * client_b, peak * server_b
    )


def run_many(costs: PhaseCosts, config: SimConfig, base_seed: int = 0) -> AggregateMetrics:
    """Simulate config.n_runs independent realizations, seeds base_seed+i."""
    runs = [simulate(costs, config, base_seed + i) for i in range(config.n_runs)]
    return aggregate(runs)
