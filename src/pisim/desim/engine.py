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
et al., Synchronization and Linearity, 1992), evaluated step-major over a
sweep point's runs. Each run draws its own arrivals from its own seed; a
block of runs is padded with inf into one (requests, runs) float64 matrix,
and step k updates row k of every run at once. Each element sees the same
float operations in the same order as an event-by-event simulation of its
run alone, so every time is bitwise equal to it. The serial step is
start = max(a_k, t_free), ready = start + off, t_free = ready + on. Step k
reads only rows up to k, so a run's padding never reaches its requests.

Done times never decrease with k, so a run's finished requests are a
prefix of its column. Its four means are one pairwise sum over each row
of a contiguous (4, completed) copy of that prefix, divided by its length:
the sums a per-run np.mean makes. Padding with zeros instead would regroup
the pairwise sums. The closed form cummax(a_k - k S) + k S of the serial
recurrence is not used either: it rounds differently, by up to 8e-14
relative, which can move a sweep CSV's sixth digit. A run's means are its
column of one (4, runs) array, which metrics.aggregate reduces.

Runs are drawn and scheduled block by block, each block's matrix within
BLOCK_ELEMENTS elements, so memory stays bounded at high arrival rates
however many runs a point has.

Capacities reach a feasible run only through capacity_bundles under
pipelined serving, and not at all under serial serving. run_key is what
run_many's result depends on: costs, arrival rate, horizon, run count,
concurrency, base seed and, when pipelined, that bundle count. A sweep
runs each distinct key once.

The pipelined model makes two assumptions that shape its output:

- Bundles are built only for the n requests that arrive within the
  horizon, so the engine knows the future arrival count.
- The first min(n, cap) builds all start at t = 0, so the peak storage of
  a pipelined run is always min(arrived, cap) bundles, and the peak over
  a point's runs is that of its run with the most arrivals.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ..costmodel.types import PhaseCosts
from .arrivals import poisson_arrival_times
from .config import SERIAL, ConfigInfeasible, SimConfig
from .metrics import AggregateMetrics, Schedule, aggregate, summarize_run

# Largest (requests, runs) matrix a block of runs is scheduled in, in elements.
BLOCK_ELEMENTS = 1 << 20


def _bundle_bytes(costs: PhaseCosts) -> tuple[int, int]:
    return costs.client_storage_delta_bytes, costs.server_storage_delta_bytes


def capacity_bundles(costs: PhaseCosts, config: SimConfig) -> float:
    """How many unconsumed bundles fit in storage; math.inf when unbounded."""
    client_b, server_b = _bundle_bytes(costs)
    cap = math.inf
    if server_b > 0 and config.server_capacity_bytes < math.inf:
        cap = min(cap, math.floor(config.server_capacity_bytes / server_b))
    if client_b > 0 and config.client_capacity_bytes < math.inf:
        cap = min(cap, math.floor(config.client_capacity_bytes / client_b))
    return cap


def run_key(costs: PhaseCosts, config: SimConfig, base_seed: int = 0) -> tuple | None:
    """What run_many(costs, config, base_seed) depends on, and nothing else
    (see the module docstring): equal keys give equal results. None for a
    config _check_feasible rejects, whose message names its capacities."""
    try:
        _check_feasible(costs, config)
    except ConfigInfeasible:
        return None
    bundles = None if config.concurrency == SERIAL else capacity_bundles(costs, config)
    return (costs, config.arrival_rate, config.horizon_s, config.n_runs,
            config.concurrency, base_seed, bundles)


def _check_feasible(costs: PhaseCosts, config: SimConfig) -> None:
    client_b, server_b = _bundle_bytes(costs)
    if server_b > config.server_capacity_bytes:
        raise ConfigInfeasible(
            f"one bundle needs {server_b} server bytes but capacity is "
            f"{config.server_capacity_bytes:.3g}"
        )
    if client_b > config.client_capacity_bytes:
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


def serial_steps(
    arrivals: np.ndarray, off: float, on: float
) -> tuple[np.ndarray, np.ndarray]:
    """Lindley's recursion over (requests, runs) arrivals padded with inf.

    Returns (bundle_ready, finish), each (requests, runs), for every
    request, past the horizon too. A request starts online when its
    bundle is ready.
    """
    ready = np.empty_like(arrivals)
    finish = np.empty_like(arrivals)
    t_free = np.zeros(arrivals.shape[1])
    for a_k, ready_k, finish_k in zip(arrivals, ready, finish):
        np.maximum(a_k, t_free, out=ready_k)
        ready_k += off
        np.add(ready_k, on, out=finish_k)
        t_free = finish_k
    return ready, finish


def pipelined_steps(
    arrivals: np.ndarray, off: float, on: float, cap: float, horizon: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Max-plus recurrence over FIFO bundles, for (requests, runs) arrivals
    padded with inf; cap is shared by the runs.

    Bundle k starts building when request k - cap starts online (at t = 0
    for the first cap), and request k starts online at
    o_k = max(a_k, ready_k, done_{k-1}). Nothing starts after the first
    online start or completion past the horizon. t_free only grows, so
    once it passes the horizon so does every later o_k, and the times past
    the horizon are exactly those an event-by-event simulation never
    reaches. Returns (bundle_ready, online_start, finish), each
    (requests, runs): bundle_ready is inf for a build that never started,
    and online_start and finish are not cut at the horizon.
    """
    if cap < 1:
        raise ConfigInfeasible("storage capacity cannot hold a single bundle")
    n = arrivals.shape[0]
    ready = np.full_like(arrivals, off)
    start = np.empty_like(arrivals)
    finish = np.empty_like(arrivals)
    t_free = np.zeros(arrivals.shape[1])
    for k, (a_k, o, finish_k) in enumerate(zip(arrivals, start, finish)):
        np.maximum(a_k, ready[k], out=o)
        np.maximum(o, t_free, out=o)
        if k + cap < n:
            np.add(o, off, out=ready[k + cap])
        np.add(o, on, out=finish_k)
        t_free = finish_k
    if cap < n:
        ready[cap:][start[: n - cap] > horizon] = math.inf
    return ready, start, finish


def _steps(
    arrivals: np.ndarray, costs: PhaseCosts, config: SimConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(bundle_ready, online_start, finish) of the mode's recurrence."""
    off = costs.offline_latency_s
    on = costs.online_latency_s
    if config.concurrency == SERIAL:
        ready, finish = serial_steps(arrivals, off, on)
        return ready, ready, finish
    cap = capacity_bundles(costs, config)
    return pipelined_steps(arrivals, off, on, cap, config.horizon_s)


def _peak_bundles(costs: PhaseCosts, config: SimConfig, arrived: int) -> int:
    cap = 1 if config.concurrency == SERIAL else capacity_bundles(costs, config)
    return int(min(arrived, cap))


def _draw_arrivals(config: SimConfig, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return poisson_arrival_times(rng, config.arrival_rate, config.horizon_s)


def _pad(arrivals: list[np.ndarray]) -> np.ndarray:
    """The runs' arrivals as the columns of one matrix, padded with inf."""
    matrix = np.full((max(a.size for a in arrivals), len(arrivals)), math.inf)
    for column, a in zip(matrix.T, arrivals):
        column[: a.size] = a
    return matrix


def run_schedule(costs: PhaseCosts, config: SimConfig, seed: int = 0) -> tuple[Schedule, int]:
    """One arrival realization's schedule and its peak count of live bundles.

    The same seed always produces the same arrival times and therefore the
    same schedule; both phases are deterministic given the arrivals.
    """
    _check_feasible(costs, config)
    arrivals = _draw_arrivals(config, seed)
    ready, start, finish = (t[:, 0] for t in _steps(arrivals[:, None], costs, config))
    horizon = config.horizon_s
    schedule = Schedule(
        arrival=arrivals,
        bundle_ready=ready,
        online_start=np.where(start <= horizon, start, math.nan),
        done=np.where(finish <= horizon, finish, math.nan),
    )
    return schedule, _peak_bundles(costs, config, arrivals.size)


def _simulate_seeds(
    costs: PhaseCosts, config: SimConfig, seeds: Sequence[int]
) -> AggregateMetrics:
    """Aggregate one run per seed. The runs are drawn in order and
    scheduled in blocks of consecutive runs, each padded into at most
    BLOCK_ELEMENTS elements (or holding one run, if it alone is longer).
    Each run's four means are its column of one (4, runs) array."""
    _check_feasible(costs, config)
    means = np.empty((4, len(seeds)))
    block: list[np.ndarray] = []
    arrived = completed = longest = most = 0
    for r, seed in enumerate(seeds):
        arrivals = _draw_arrivals(config, seed)
        arrived += arrivals.size
        most = max(most, arrivals.size)
        longest = max(longest, arrivals.size)
        if block and longest * (len(block) + 1) > BLOCK_ELEMENTS:
            completed += _simulate_block(costs, config, block, means[:, r - len(block) : r])
            longest = arrivals.size
        block.append(arrivals)
    completed += _simulate_block(costs, config, block, means[:, -len(block) :])
    saturated = config.arrival_rate > stability_limit(costs, config)
    peak = _peak_bundles(costs, config, most)
    client_b, server_b = _bundle_bytes(costs)
    return aggregate(means, arrived, completed, saturated, peak * client_b, peak * server_b)


def _simulate_block(
    costs: PhaseCosts, config: SimConfig, block: list[np.ndarray], means: np.ndarray
) -> int:
    """Schedule a block of runs' arrivals step-major, write each run's four
    means into its column of means, and return how many of the block's
    requests completed. Empties the block: the arrivals live on only in
    their padded copy."""
    arrivals = _pad(block)
    block.clear()
    ready, start, finish = _steps(arrivals, costs, config)
    # finish never decreases, so each run's finished requests are a prefix
    completed = np.count_nonzero(finish <= config.horizon_s, axis=0).tolist()
    for r, k in enumerate(completed):
        finished = Schedule(arrivals[:k, r], ready[:k, r], start[:k, r], finish[:k, r])
        means[:, r] = summarize_run(finished)
    return sum(completed)


def simulate(costs: PhaseCosts, config: SimConfig, seed: int = 0) -> AggregateMetrics:
    """Run one arrival realization: run_many's aggregate of that one run."""
    return _simulate_seeds(costs, config, [seed])


def run_many(costs: PhaseCosts, config: SimConfig, base_seed: int = 0) -> AggregateMetrics:
    """Simulate config.n_runs independent realizations, seeds base_seed+i."""
    return _simulate_seeds(costs, config, range(base_seed, base_seed + config.n_runs))
