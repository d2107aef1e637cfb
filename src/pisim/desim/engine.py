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
row r of its Gaps and cumsums the rows in place, inf past the horizon.
_step copies its (runs, requests) arrivals once per point that steps
over it (once for a point alone, see below), side by side, and the
transpose, (requests, members * runs), goes to the step loop with one
off and one on value per column. The loop overwrites it in place, so
step k updates row k of every run of every member at once. Each element
sees the same float operations in the same order as an event-by-event
simulation of its run alone, so every time is bitwise equal to it. Step
k reads only rows up to k, so a run's padding never reaches its
requests. The steps keep bundle_ready and online_start (the same matrix
under serial serving); a request's finish time is online_start + on, the
one add that also advances t_free, so it is computed where it is read
and never stored.

Finish times never decrease with k, so a run's finished requests are a
prefix of its row. One metrics.summarize_run call summarizes the block
for every point: it takes the arrivals and the (members * runs,
requests) stepped times with one on per row, orders the rows by their
finished counts and sums each stretch of equal counts in one reduction;
its docstring says why each sum is still bitwise that of a per-run
np.mean. Each point's rows of the (4, members * runs) means go to its
own (4, runs) array, which metrics.aggregate reduces. The closed form
cummax(a_k - k S) + k S of the serial recurrence is not used: it rounds
differently, by up to 8e-14 relative, which can move a sweep CSV's sixth
digit.

A block holds as many runs as keep its widest draw group's copies
within BLOCK_ELEMENTS elements (at least one run), so memory stays
bounded at high arrival rates however many runs a point has; a run whose
first segment falls short of the horizon can widen its block's matrix.

run_group(points, base_seed) runs sweep points, (costs, config) pairs of
one run count, over one realization of each seed (common random
numbers): run r of every point reads its gaps from
np.random.default_rng(base_seed + r)'s stream. The points whose run_keys
differ only in costs form a draw group. Each block's seeds are hashed
once, into one Gaps dropped after the block and widened once to the
widest first segment of its groups (split draws equal one draw, so this
moves no bit), and every group draws its arrivals from it at its own
rate and horizon and steps and summarizes its points over them as one
matrix. Each point is then aggregated with its own costs and config:
under pipelined serving equal keys mean equal capacity_bundles, so a
group shares its cap, but not the capacities that give it. run_many is
a group of one.

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

import dataclasses
import math
from typing import Sequence

from .._numpy import np
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


def serial_steps(times: np.ndarray, off, on) -> np.ndarray:
    """Lindley's recursion, in place, over (requests, columns) arrival
    times padded with inf; off and on are scalars or one per column.

    times enters holding the arrivals and leaves holding bundle_ready for
    every request, past the horizon too; it is returned. A request starts
    online when its bundle is ready and finishes at bundle_ready + on.
    """
    t_free = np.zeros(times.shape[1])
    for ready_k in times:
        np.maximum(ready_k, t_free, out=ready_k)
        ready_k += off
        np.add(ready_k, on, out=t_free)
    return times


def pipelined_steps(
    times: np.ndarray, off, on, cap: float, horizon: float
) -> tuple[np.ndarray, np.ndarray]:
    """Max-plus recurrence over FIFO bundles, in place, over (requests,
    columns) arrival times padded with inf; off and on are scalars or one
    per column, and cap is shared by the columns.

    Bundle k starts building when request k - cap starts online (at t = 0
    for the first cap), and request k starts online at
    o_k = max(a_k, ready_k, done_{k-1}), where done_k = o_k + on. Nothing
    starts after the first online start or completion past the horizon.
    t_free only grows, so once it passes the horizon so does every later
    o_k, and the times past the horizon are exactly those an
    event-by-event simulation never reaches. times enters holding the
    arrivals and leaves holding online_start. Returns (bundle_ready,
    online_start), each (requests, columns): bundle_ready is inf for a
    build that never started, and online_start is not cut at the horizon.
    """
    if cap < 1:
        raise ConfigInfeasible("storage capacity cannot hold a single bundle")
    n = times.shape[0]
    ready = np.full_like(times, off)
    t_free = np.zeros(times.shape[1])
    for k, o in enumerate(times):
        np.maximum(o, ready[k], out=o)
        np.maximum(o, t_free, out=o)
        if k + cap < n:
            np.add(o, off, out=ready[k + cap])
        np.add(o, on, out=t_free)
    if cap < n:
        ready[cap:][times[: n - cap] > horizon] = math.inf
    return ready, times


def _step(times: np.ndarray, members: Sequence[PhaseCosts], config: SimConfig) -> tuple:
    """Step one drawn block, (runs, draw) times padded with inf, for each
    member's costs: each member's copy of the arrival columns sits beside
    the others in one (requests, members * runs) matrix, with per-column
    off and on, and the mode's recurrence runs once over it. Returns the
    arrivals cut to the widest run, the runs' arrival counts, the
    bundle_ready and online_start of every member's runs, each
    (members * runs, width) with member i's runs at rows i * runs on, and
    each row's on."""
    counts = np.count_nonzero(times < math.inf, axis=1)
    times = times[:, : int(counts.max())]
    runs, width = times.shape
    copies = np.empty((len(members), runs, width))
    copies[:] = times
    columns = copies.reshape(len(members) * runs, width).T
    off = np.repeat([c.offline_latency_s for c in members], runs)
    on = np.repeat([c.online_latency_s for c in members], runs)
    if config.concurrency == SERIAL:
        ready = start = serial_steps(columns, off, on).T
    else:
        cap = capacity_bundles(members[0], config)
        ready, start = (m.T for m in pipelined_steps(columns, off, on, cap, config.horizon_s))
    return times, counts, ready, start, on


def _peak_bundles(costs: PhaseCosts, config: SimConfig, arrived: int) -> int:
    cap = 1 if config.concurrency == SERIAL else capacity_bundles(costs, config)
    return int(min(arrived, cap))


def run_group(
    points: Sequence[tuple[PhaseCosts, SimConfig]], base_seed: int = 0
) -> list[AggregateMetrics]:
    """run_many of each (costs, config) point, over one draw of each seed.

    The points must share a run count. Those whose run_keys differ only in
    costs form a draw group. Runs are drawn in blocks that keep the widest
    group's copies within BLOCK_ELEMENTS elements; each block's seeds are
    hashed into one Gaps that every group reads, and each group is stepped
    and summarized as one matrix (see the module docstring). Each point is
    aggregated with its own config; each run's four means are its column
    of one (4, runs) array.
    """
    for costs, config in points:
        _check_feasible(costs, config)
    n = points[0][1].n_runs
    if any(config.n_runs != n for _, config in points):
        raise ValueError("a group's points must share a run count")
    groups: dict[tuple, list[int]] = {}
    for i, point in enumerate(points):
        groups.setdefault(run_key(*point)[1:], []).append(i)
    widest = max(len(members) * draw_size(*key[:2]) for key, members in groups.items())
    per_block = max(1, BLOCK_ELEMENTS // widest)
    # the widest first segment of a group that draws at all
    first = max((draw_size(*key[:2]) for key in groups if key[0] > 0), default=0)
    means = np.empty((len(points), 4, n))
    completed, arrived, most = ([0] * len(points) for _ in range(3))
    for lo in range(0, n, per_block):
        gaps = Gaps(range(base_seed + lo, base_seed + min(lo + per_block, n)))
        gaps.first(first)  # one widening for every group's first segment
        for members in groups.values():
            config = points[members[0]][1]
            times = poisson_arrival_times(config.arrival_rate, config.horizon_s, gaps)
            cut, counts, ready, start, on = _step(times, [points[i][0] for i in members], config)
            runs = len(cut)
            block, done = summarize_run(cut, ready, start, on, config.horizon_s)
            means[members, :, lo : lo + runs] = block.reshape(4, len(members), runs).swapaxes(0, 1)
            for j, i in enumerate(members):
                completed[i] += sum(done[j * runs : (j + 1) * runs])
                arrived[i] += int(counts.sum())
                most[i] = max(most[i], cut.shape[1])
            del times, cut, ready, start  # before the next group draws its own
    results = []
    for i, (costs, config) in enumerate(points):
        saturated = config.arrival_rate > stability_limit(costs, config)
        peak = _peak_bundles(costs, config, most[i])
        client_b, server_b = _bundle_bytes(costs)
        results.append(aggregate(means[i], arrived[i], completed[i], saturated,
                                 peak * client_b, peak * server_b))
    return results


def run_schedule(costs: PhaseCosts, config: SimConfig, seed: int = 0) -> tuple[Schedule, int]:
    """One arrival realization's schedule and its peak count of live bundles.

    The run is a block of one, drawn and stepped as run_many draws and
    steps its runs, so the same seed gives the same arrival times and
    schedule in both; both phases are deterministic given the arrivals.
    """
    _check_feasible(costs, config)
    times = poisson_arrival_times(config.arrival_rate, config.horizon_s, Gaps([seed]))
    arrivals, _, ready, start, _ = (matrix[0] for matrix in _step(times, [costs], config))
    finish = start + costs.online_latency_s
    horizon = config.horizon_s
    schedule = Schedule(
        arrival=arrivals,
        bundle_ready=ready,
        online_start=np.where(start <= horizon, start, math.nan),
        done=np.where(finish <= horizon, finish, math.nan),
    )
    return schedule, _peak_bundles(costs, config, arrivals.size)


def run_many(costs: PhaseCosts, config: SimConfig, base_seed: int = 0) -> AggregateMetrics:
    """Simulate config.n_runs independent realizations, seeds base_seed+i."""
    return run_group([(costs, config)], base_seed)[0]


def simulate(costs: PhaseCosts, config: SimConfig, seed: int = 0) -> AggregateMetrics:
    """Run one arrival realization: run_many's aggregate of that one run."""
    return run_many(costs, dataclasses.replace(config, n_runs=1), seed)
