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
block of a sweep point's runs. The serial step is start = max(a_k, t_free),
ready = start + off, t_free = ready + on.

A block is drawn as one matrix: poisson_arrival_times fills row r from
row r of its Gaps and cumsums the rows in place, inf past the horizon. Its
transpose, (requests, runs), goes straight to the step loop, and step k
updates row k of every run at once. Each element sees the same float
operations in the same order as an event-by-event simulation of its run
alone, so every time is bitwise equal to it. Step k reads only rows up to
k, so a run's padding never reaches its requests. The steps keep
bundle_ready and online_start (the same matrix under serial serving); a
request's finish time is online_start + on, the one add that also
advances t_free, so it is computed where it is read and never stored.

Finish times never decrease with k, so a run's finished requests are a
prefix of its row. metrics.summarize_run takes the whole block and
returns each run's four means as its column of one (4, runs) array, which
metrics.aggregate reduces; its docstring says why the sums are bitwise
those of a per-run np.mean. The closed form cummax(a_k - k S) + k S of
the serial recurrence is not used: it rounds differently, by up to 8e-14
relative, which can move a sweep CSV's sixth digit.

A block holds as many runs as keep its matrix within BLOCK_ELEMENTS
elements (at least one), so memory stays bounded at high arrival rates
however many runs a point has; a run whose first segment falls short of
the horizon can widen its block's matrix.

Each run reads its gaps from np.random.default_rng(seed)'s stream. Within
a seeding() block, which sweep.run_points opens for its own call, a point
whose runs form one block (len(seeds) * draw_size <= BLOCK_ELEMENTS)
reads its seeds' kept Gaps: each seed is hashed once and its gaps drawn
once, and every such point scales the same gaps by its own rate (common
random numbers). The block keeps one seed range's Gaps; another range's
replace them. Other points, and every run outside a block, draw each
block from new Gaps, dropped once the block is drawn.

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

import contextlib
import math
from contextvars import ContextVar
from typing import Sequence

import numpy as np

from ..costmodel.types import PhaseCosts
from .arrivals import Gaps, draw_size, poisson_arrival_times
from .config import SERIAL, ConfigInfeasible, SimConfig
from .metrics import AggregateMetrics, Schedule, aggregate, summarize_run

# Most elements of a block's (runs, draw_size) arrival matrix.
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


def serial_steps(arrivals: np.ndarray, off: float, on: float) -> np.ndarray:
    """Lindley's recursion over (requests, runs) arrivals padded with inf.

    Returns bundle_ready, (requests, runs), for every request, past the
    horizon too. A request starts online when its bundle is ready and
    finishes at bundle_ready + on.
    """
    ready = np.empty_like(arrivals)
    t_free = np.zeros(arrivals.shape[1])
    for a_k, ready_k in zip(arrivals, ready):
        np.maximum(a_k, t_free, out=ready_k)
        ready_k += off
        np.add(ready_k, on, out=t_free)
    return ready


def pipelined_steps(
    arrivals: np.ndarray, off: float, on: float, cap: float, horizon: float
) -> tuple[np.ndarray, np.ndarray]:
    """Max-plus recurrence over FIFO bundles, for (requests, runs) arrivals
    padded with inf; cap is shared by the runs.

    Bundle k starts building when request k - cap starts online (at t = 0
    for the first cap), and request k starts online at
    o_k = max(a_k, ready_k, done_{k-1}), where done_k = o_k + on. Nothing
    starts after the first online start or completion past the horizon.
    t_free only grows, so once it passes the horizon so does every later
    o_k, and the times past the horizon are exactly those an
    event-by-event simulation never reaches. Returns (bundle_ready,
    online_start), each (requests, runs): bundle_ready is inf for a build
    that never started, and online_start is not cut at the horizon.
    """
    if cap < 1:
        raise ConfigInfeasible("storage capacity cannot hold a single bundle")
    n = arrivals.shape[0]
    ready = np.full_like(arrivals, off)
    start = np.empty_like(arrivals)
    t_free = np.zeros(arrivals.shape[1])
    for k, (a_k, o) in enumerate(zip(arrivals, start)):
        np.maximum(a_k, ready[k], out=o)
        np.maximum(o, t_free, out=o)
        if k + cap < n:
            np.add(o, off, out=ready[k + cap])
        np.add(o, on, out=t_free)
    if cap < n:
        ready[cap:][start[: n - cap] > horizon] = math.inf
    return ready, start


def _steps(
    arrivals: np.ndarray, costs: PhaseCosts, config: SimConfig
) -> tuple[np.ndarray, np.ndarray]:
    """(bundle_ready, online_start) of the mode's recurrence."""
    off = costs.offline_latency_s
    on = costs.online_latency_s
    if config.concurrency == SERIAL:
        ready = serial_steps(arrivals, off, on)
        return ready, ready
    cap = capacity_bundles(costs, config)
    return pipelined_steps(arrivals, off, on, cap, config.horizon_s)


def _peak_bundles(costs: PhaseCosts, config: SimConfig, arrived: int) -> int:
    cap = 1 if config.concurrency == SERIAL else capacity_bundles(costs, config)
    return int(min(arrived, cap))


# The open seeding() block's kept Gaps, by their seeds: at most one.
_kept: ContextVar[dict[tuple[int, ...], Gaps] | None] = ContextVar("kept_gaps", default=None)


@contextlib.contextmanager
def seeding():
    """Keep one seed range's Gaps while the block is open (see the module
    docstring); they end with the block."""
    token = _kept.set({})
    try:
        yield
    finally:
        _kept.reset(token)


def _blocks(costs: PhaseCosts, config: SimConfig, seeds: Sequence[int]):
    """Draw and step one run per seed, in blocks of consecutive runs whose
    arrival matrix holds at most BLOCK_ELEMENTS elements (or one run, if
    it alone is longer). Yields each block's arrivals, cut to its widest
    run, its runs' arrival counts, and its bundle_ready and online_start,
    each (runs, width)."""
    rate, horizon = config.arrival_rate, config.horizon_s
    draw, kept = draw_size(rate, horizon), _kept.get()
    if len(seeds) * draw <= BLOCK_ELEMENTS and kept is not None:
        seeds = tuple(seeds)
        if seeds not in kept:
            kept.clear()
            kept[seeds] = Gaps(seeds)
        draws = [poisson_arrival_times(rate, horizon, kept[seeds])]
    else:
        per_block = max(1, BLOCK_ELEMENTS // draw)
        draws = (poisson_arrival_times(rate, horizon, Gaps(seeds[lo : lo + per_block]))
                 for lo in range(0, len(seeds), per_block))
    for times in draws:
        counts = np.count_nonzero(times < math.inf, axis=1)
        times = times[:, : int(counts.max())]
        ready, start = (t.T for t in _steps(times.T, costs, config))
        yield times, counts, ready, start


def run_schedule(costs: PhaseCosts, config: SimConfig, seed: int = 0) -> tuple[Schedule, int]:
    """One arrival realization's schedule and its peak count of live bundles.

    The run is a block of one, drawn and stepped as run_many draws and
    steps its runs, so the same seed gives the same arrival times and
    schedule in both; both phases are deterministic given the arrivals.
    """
    _check_feasible(costs, config)
    (block,) = _blocks(costs, config, [seed])
    arrivals, _, ready, start = (matrix[0] for matrix in block)
    finish = start + costs.online_latency_s
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
    """Aggregate one run per seed. The runs are drawn, scheduled and
    summarized a block of _blocks at a time. Each run's four means are its
    column of one (4, runs) array."""
    _check_feasible(costs, config)
    rate, horizon = config.arrival_rate, config.horizon_s
    means = np.empty((4, len(seeds)))
    arrived = completed = most = lo = 0
    for times, counts, ready, start in _blocks(costs, config, seeds):
        arrived += int(counts.sum())
        most = max(most, times.shape[1])
        means[:, lo : lo + len(times)], done = summarize_run(
            times, ready, start, costs.online_latency_s, horizon
        )
        completed += sum(done)
        lo += len(times)
    saturated = rate > stability_limit(costs, config)
    peak = _peak_bundles(costs, config, most)
    client_b, server_b = _bundle_bytes(costs)
    return aggregate(means, arrived, completed, saturated, peak * client_b, peak * server_b)


def simulate(costs: PhaseCosts, config: SimConfig, seed: int = 0) -> AggregateMetrics:
    """Run one arrival realization: run_many's aggregate of that one run."""
    return _simulate_seeds(costs, config, [seed])


def run_many(costs: PhaseCosts, config: SimConfig, base_seed: int = 0) -> AggregateMetrics:
    """Simulate config.n_runs independent realizations, seeds base_seed+i."""
    return _simulate_seeds(costs, config, range(base_seed, base_seed + config.n_runs))
