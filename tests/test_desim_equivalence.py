"""The step-major engine against the event-by-event reference in desim_oracle.

Every per-request time must be equal with ==, not merely close: the sweep
CSVs are compared byte for byte.
"""

import collections
import concurrent.futures
import contextvars
import dataclasses
import gc
import itertools
import math
import pickle
import weakref

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import desim_oracle
from pisim.cli import main
from pisim.costmodel import load_shipped_model, phase_costs
from pisim.desim import (
    PIPELINED,
    SERIAL,
    SWEEP_COLUMNS,
    SimConfig,
    aggregate,
    run_many,
    run_points,
    simulate,
    sweep_point,
)
from pisim.desim import arrivals, engine, metrics, sweep
from pisim.desim.sweep import format_value
from pisim.desim.engine import pipelined_steps, run_group, serial_steps
from pisim.desim.metrics import Schedule, summarize_run
from pisim.netarch import build_preset

CM = load_shipped_model()


def _oracle_arrays(records) -> list[np.ndarray]:
    def opt(t):
        return math.nan if t is None else t

    return [
        np.array([r.arrival_s for r in records], dtype=np.float64),
        np.array([r.bundle_ready_s for r in records], dtype=np.float64),
        np.array([opt(r.online_start_s) for r in records], dtype=np.float64),
        np.array([opt(r.done_s) for r in records], dtype=np.float64),
    ]


def _assert_same(timelines, records) -> None:
    for name, mine, ref in zip(("arrival", "bundle_ready", "online_start", "done"),
                               timelines, _oracle_arrays(records)):
        assert mine.dtype == np.float64, name
        assert np.array_equal(mine, ref, equal_nan=True), (name, mine, ref)


def _assert_same_metrics(mine, ref) -> None:
    """Field by field equality of type and value, floats bit for bit
    (repr tells every float64 apart), with NaN equal to NaN."""
    for field in dataclasses.fields(ref):
        got, want = getattr(mine, field.name), getattr(ref, field.name)
        assert repr(got) == repr(want), (field.name, got, want)


@st.composite
def batches(draw):
    """(runs, off, on, horizon): one to five runs' sorted arrival lists,
    ragged and possibly empty, sharing phase times and horizon. On the
    integer grid, arrivals, bundle completions and online completions
    coincide often, which exercises the reference heap's tie-break order."""
    if draw(st.booleans()):
        times = st.integers(0, 40).map(float)
        off = float(draw(st.integers(0, 6)))
        on = float(draw(st.integers(0, 6)))
        horizon = float(draw(st.integers(1, 60)))
    else:
        times = st.floats(0.0, 100.0, allow_nan=False, allow_infinity=False)
        phase = st.one_of(st.just(0.0), st.floats(0.0, 20.0))
        off = draw(phase)
        on = draw(phase)
        horizon = draw(st.floats(0.5, 150.0))
    runs = []
    for arrivals in draw(st.lists(st.lists(times, max_size=40), min_size=1, max_size=5)):
        if arrivals:
            arrivals += draw(st.lists(st.sampled_from(arrivals), max_size=10))
        runs.append(sorted(arrivals))
    return runs, off, on, horizon


def _padded(runs) -> np.ndarray:
    matrix = np.full((max(map(len, runs)), len(runs)), math.inf)
    for column, arrivals in zip(matrix.T, runs):
        column[: len(arrivals)] = arrivals
    return matrix


def _assert_rows_same(runs, steps, horizon, reference) -> None:
    """Each run's column of the batched timelines, cut at the horizon,
    equals its reference run."""
    ready, start, finish = steps
    online = np.where(start <= horizon, start, math.nan)
    done = np.where(finish <= horizon, finish, math.nan)
    for r, arrivals in enumerate(runs):
        arrivals = np.array(arrivals, dtype=np.float64)
        n = arrivals.size
        records, _ = reference(arrivals)
        _assert_same([arrivals] + [t[:n, r] for t in (ready, online, done)], records)


caps = st.one_of(st.sampled_from([1, 2, math.inf]), st.integers(3, 6))


def _spaced(gap: float, n: int) -> list[float]:
    return [gap * k for k in range(n)]


# Long runs that the horizon cuts off well before their last arrival, so
# they keep stepping long after they stop. In _STOPPED every run stops; in
# _RUNNING the last run never does.
_STOPPED = ([_spaced(0.25, 200), _spaced(0.3, 150), []], 3.0, 1.0, 60.0)
_RUNNING = ([_spaced(0.1, 400), _spaced(0.3, 150), [], _spaced(1.4, 100)], 3.0, 1.0, 150.0)


@settings(max_examples=400, deadline=None)
@given(batches())
@example(([[]], 1.0, 1.0, 10.0))
@example(([[], [], []], 1.0, 1.0, 10.0))
@example(([[0.0, 1.0, 2.0], [], [5.0]], 2.0, 1.0, 6.0))
@example(_STOPPED)
@example(_RUNNING)
def test_serial_schedule_matches_reference(batch):
    runs, off, on, horizon = batch
    ready = serial_steps(_padded(runs), off, on)
    _assert_rows_same(runs, (ready, ready, ready + on), horizon,
                      lambda a: desim_oracle.simulate_serial(a, off, on, horizon))


@settings(max_examples=400, deadline=None)
@given(batches(), caps)
@example(([[]], 1.0, 1.0, 10.0), 1)
@example(([[], []], 1.0, 1.0, 10.0), math.inf)
@example(([[0.0, 0.0, 1.0, 1.0, 2.0]], 1.0, 1.0, 3.0), 2)
@example(([[0.0, 0.0, 1.0, 1.0, 2.0], [], [0.5]], 1.0, 1.0, 3.0), 2)
@example(_STOPPED, 1)
@example(_STOPPED, 4)
@example(_RUNNING, 2)
@example(_RUNNING, math.inf)
def test_pipelined_schedule_matches_reference(batch, cap):
    runs, off, on, horizon = batch
    ready, start = pipelined_steps(_padded(runs), off, on, cap, horizon)
    _assert_rows_same(runs, (ready, start, start + on), horizon,
                      lambda a: desim_oracle.simulate_pipelined(a, off, on, cap, horizon))


def _fixed_draw(size):
    return lambda rate, horizon_s: size


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(st.just(0.0), st.floats(1e-3, 5.0)),
    st.floats(0.5, 200.0),
    st.integers(0, 2**32),
    st.integers(1, 6),
    st.one_of(st.none(), st.integers(1, 20)),
)
@example(1.0, 50.0, 0, 3, 4)  # every run needs many segments
@example(0.0, 86_400.0, 0, 2, None)
def test_block_draw_matches_per_run_draws(rate, horizon, base, n, draw):
    """The block draw against one generator per seed, padded with inf;
    draw, when given, shrinks the segment on both sides. The gaps kept
    are each seed's first gaps, each drawn once."""
    seeds = range(base, base + n)
    with pytest.MonkeyPatch.context() as mp:
        if draw is not None:
            mp.setattr(arrivals, "draw_size", _fixed_draw(draw))
            mp.setattr(desim_oracle, "draw_size", _fixed_draw(draw))
        gaps = arrivals.Gaps(seeds)
        block = arrivals.poisson_arrival_times(rate, horizon, gaps)
        runs = [desim_oracle.draw_arrivals(rate, horizon, s) for s in seeds]
    for row, rng, seed in zip(gaps.kept, gaps._rngs, seeds):
        fresh = np.random.default_rng(seed)
        assert np.array_equal(row, fresh.standard_exponential(row.size))
        assert rng.bit_generator.state == fresh.bit_generator.state
    reference = desim_oracle.pad(runs).T
    width = reference.shape[1]
    assert block.dtype == np.float64
    assert block.shape[0] == n and block.shape[1] >= width
    assert np.array_equal(block[:, :width], reference)
    assert np.all(block[:, width:] == math.inf)


@settings(max_examples=300, deadline=None)
@given(batches(), st.one_of(st.just(SERIAL), caps), st.integers(1, 64), st.booleans())
@example(([[0.0, 1.0], [], [0.5]], 2.0, 1.0, 2.5), SERIAL, 1, False)  # nothing completes
@example(_RUNNING, 2, 8, True)
def test_block_summary_matches_per_run_summaries(batch, cap, budget, run_major):
    """The block summary against one four-term stack per run's finished
    prefix, over summary budgets of a few elements to a few runs."""
    runs, off, on, horizon = batch
    padded = _padded(runs)
    if run_major:  # the engine's layout: the transpose of a (runs, requests) matrix
        padded = np.ascontiguousarray(padded.T).T
    steps = padded.copy(order="K")  # the steps overwrite the arrivals
    if cap == SERIAL:
        ready = start = serial_steps(steps, off, on)
    else:
        ready, start = pipelined_steps(steps, off, on, cap, horizon)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(metrics, "SUMMARY_ELEMENTS", budget)
        means, completed = summarize_run(padded.T, ready.T, start.T, on, horizon)
    assert means.shape == (4, len(runs))
    for r in range(len(runs)):
        finish = start[:, r] + on
        k = int(np.count_nonzero(finish <= horizon))
        finished = Schedule(padded[:k, r], ready[:k, r], start[:k, r], finish[:k])
        assert completed[r] == k
        assert repr(means[:, r].tolist()) == repr(desim_oracle.summarize_run(finished).tolist())


# finished counts about the pairwise sum's edges (it adds 8 terms at a
# time, in blocks of 128), and a few hundred
_EDGE_COUNTS = [0, 1, 7, 8, 9, 127, 128, 129, 300, 301, 450]
_FAR = 1e9  # a horizon every request finishes by


@st.composite
def shared_blocks(draw):
    """(lengths, phases, horizon, seed): runs whose arrival counts repeat,
    and 2-3 members with their own (off, on). Under the far horizon every
    request finishes, so a run's length is the finished count of each
    member's row of it, and rows of equal count abound."""
    lengths = draw(st.lists(st.sampled_from(_EDGE_COUNTS), min_size=2, max_size=8))
    phase = st.one_of(st.just(0.0), st.floats(0.01, 2.0))
    phases = draw(st.lists(st.tuples(phase, phase), min_size=2, max_size=3, unique=True))
    horizon = draw(st.one_of(st.just(_FAR), st.floats(1.0, 600.0)))
    return lengths, phases, horizon, draw(st.integers(0, 2**32))


@settings(max_examples=150, deadline=None)
@given(shared_blocks(), st.one_of(st.just(SERIAL), st.sampled_from([1, 2, 5, math.inf])),
       st.sampled_from([1, 2, 3, 5]), st.integers(0, 10**6))
@example((_EDGE_COUNTS, [(0.5, 0.25), (0.0, 1.0), (1.0, 0.0)], _FAR, 7), SERIAL, 2, 0)
@example((_EDGE_COUNTS[::-1], [(0.5, 0.25), (0.25, 0.5)], _FAR, 7), 2, 3, 1)
def test_group_summary_shares_reductions(block, cap, step, extra):
    """One summarize_run call over a draw group's block, members' rows side
    by side as engine._step returns them, against each row's own four-term
    stack, with SUMMARY_ELEMENTS giving step rows a chunk, so that chunk
    edges cut through stretches of rows of one finished count."""
    lengths, phases, horizon, seed = block
    rng = np.random.default_rng(seed)
    runs = [np.sort(rng.uniform(0.0, 500.0, n)) for n in lengths]
    runs = [a[a < horizon] for a in runs]
    members = [
        dataclasses.replace(_SHARING_COSTS[0], offline_latency_s=off, online_latency_s=on,
                            client_storage_delta_bytes=1, server_storage_delta_bytes=0)
        for off, on in phases
    ]
    config = SimConfig(arrival_rate=0.0, horizon_s=horizon, n_runs=len(runs),
                       concurrency=SERIAL if cap == SERIAL else PIPELINED,
                       client_capacity_bytes=1.0 if cap == SERIAL else cap)
    arrivals, _, ready, start, on = engine._step(desim_oracle.pad(runs).T, members, config)
    assert on.tolist() == [on for _, on in phases for _ in runs]
    width = arrivals.shape[1]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(metrics, "SUMMARY_ELEMENTS", step * width + extra % max(width, 1))
        means, completed = summarize_run(arrivals, ready, start, on, horizon)
    assert means.shape == (4, len(members) * len(runs))
    if horizon == _FAR:
        assert completed == lengths * len(members)
    for i, k in enumerate(completed):
        r = i % len(runs)
        finish = start[i] + on[i]
        assert k == np.count_nonzero(finish <= horizon)
        finished = Schedule(arrivals[r, :k], ready[i, :k], start[i, :k], finish[:k])
        assert repr(means[:, i].tolist()) == repr(desim_oracle.summarize_run(finished).tolist())


@pytest.mark.parametrize(
    "proto, model, dataset, concurrency, rate, horizon, cap_gb",
    [
        ("sg", "resnet32", "cifar100", SERIAL, 2e-2, 20_000.0, math.inf),
        ("cg", "resnet18", "cifar100", PIPELINED, 2e-3, 100_000.0, math.inf),
        ("sg", "resnet18", "tinyimagenet", PIPELINED, 4e-3, 86_400.0, 128.0),
    ],
)
def test_simulate_matches_reference(proto, model, dataset, concurrency, rate, horizon, cap_gb):
    costs = phase_costs(CM, proto, build_preset(model, dataset), mode="table")
    cfg = SimConfig(
        arrival_rate=rate,
        horizon_s=horizon,
        concurrency=concurrency,
        client_capacity_bytes=cap_gb * 1e9,
    )
    for seed in range(3):
        reference = desim_oracle.aggregate([desim_oracle.simulate(costs, cfg, seed)])
        _assert_same_metrics(simulate(costs, cfg, seed), reference)


# One byte of storage per bundle on each side, so a client capacity of
# cap bytes holds cap bundles.
_UNIT_COSTS = dataclasses.replace(
    phase_costs(CM, "cg", build_preset("resnet32", "cifar100"), mode="table"),
    client_storage_delta_bytes=1, server_storage_delta_bytes=1,
)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([SERIAL, PIPELINED]),
    st.one_of(st.just(0.0), st.floats(1e-3, 5.0)),
    st.floats(0.5, 200.0),
    caps,
    st.one_of(st.just(0.0), st.floats(0.0, 20.0)),
    st.one_of(st.just(0.0), st.floats(0.0, 20.0)),
    st.integers(0, 2**32),
    st.one_of(st.none(), st.integers(1, 20)),
)
@example(SERIAL, 0.0, 86_400.0, 1, 1.0, 1.0, 0, None)  # no arrivals
@example(PIPELINED, 5.0, 1.0, 2, 3.0, 1.0, 0, None)  # nothing completes
@example(PIPELINED, 1.0, 50.0, 3, 2.0, 0.5, 0, 4)  # many segments
@example(PIPELINED, 2.0, 100.0, math.inf, 5.0, 0.1, 7, None)
def test_run_schedule_matches_reference(concurrency, rate, horizon, cap, off, on, seed, draw):
    """run_schedule's four arrays and peak bundle count against the
    reference records of the same seed's draw, bit for bit, with None
    read as NaN; draw, when given, shrinks the segment on both sides."""
    costs = dataclasses.replace(_UNIT_COSTS, offline_latency_s=off, online_latency_s=on)
    cfg = SimConfig(arrival_rate=rate, horizon_s=horizon, concurrency=concurrency,
                    server_capacity_bytes=math.inf, client_capacity_bytes=cap)
    with pytest.MonkeyPatch.context() as mp:
        if draw is not None:
            mp.setattr(arrivals, "draw_size", _fixed_draw(draw))
            mp.setattr(desim_oracle, "draw_size", _fixed_draw(draw))
        schedule, peak = engine.run_schedule(costs, cfg, seed)
        times = desim_oracle.draw_arrivals(rate, horizon, seed)
    if concurrency == SERIAL:
        records, reference_peak = desim_oracle.simulate_serial(times, off, on, horizon)
    else:
        records, reference_peak = desim_oracle.simulate_pipelined(times, off, on, cap, horizon)
    _assert_same([schedule.arrival, schedule.bundle_ready, schedule.online_start, schedule.done],
                  records)
    assert type(peak) is int and peak == reference_peak


_MEANS = ("mean_latency_s", "mean_precompute_wait_s", "mean_queue_wait_s", "mean_online_s")
_NAN_RUN = (math.nan,) * 4
_entry = st.one_of(st.floats(0.0, 1e9), st.just(math.nan))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.just(_NAN_RUN), st.tuples(*[_entry] * 4)), min_size=1, max_size=40),
       st.booleans())
@example([_NAN_RUN], False)
@example([(1.0, 2.0, 3.0, 4.0)], True)
def test_aggregate_matches_list_reference(columns, saturated):
    """The (4, runs) aggregate against the list-based reference, over
    columns that are all NaN (a run in which nothing completed), and
    single NaN entries too."""
    means = np.array(columns).T.copy()
    runs = [
        desim_oracle.RunMetrics(
            k, k // 2, *column, saturated,
            peak_client_storage_bytes=10**12 * (k % 7), peak_server_storage_bytes=k % 5,
        )
        for k, column in enumerate(columns)
    ]
    mine = aggregate(
        means,
        sum(r.arrived for r in runs),
        sum(r.completed for r in runs),
        saturated,
        max(r.peak_client_storage_bytes for r in runs),
        max(r.peak_server_storage_bytes for r in runs),
    )
    _assert_same_metrics(mine, desim_oracle.aggregate(runs))


@pytest.mark.parametrize("concurrency", [SERIAL, PIPELINED])
@pytest.mark.parametrize(
    "rate, horizon, block",
    [
        (0.0, 86_400.0, engine.BLOCK_ELEMENTS),  # no arrivals at all
        (5.0, 1.0, engine.BLOCK_ELEMENTS),  # arrivals, but nothing completes
        (2e-2, 20_000.0, 1_000),  # blocks of about two runs
        (2e-2, 20_000.0, 1),  # one run per block
    ],
)
def test_run_many_matches_reference(concurrency, rate, horizon, block, monkeypatch):
    monkeypatch.setattr(engine, "BLOCK_ELEMENTS", block)
    shapes = []
    draw_block = engine.poisson_arrival_times

    def draw(*args):
        matrix = draw_block(*args)
        shapes.append(matrix.shape)
        return matrix

    aggregated = []

    def aggregate_runs(means, *totals):
        aggregated.append(means.copy())
        return aggregate(means, *totals)

    monkeypatch.setattr(engine, "poisson_arrival_times", draw)
    monkeypatch.setattr(engine, "aggregate", aggregate_runs)
    arch = build_preset("resnet18", "tinyimagenet")
    costs = phase_costs(CM, "sg", arch, mode="table")
    cfg = SimConfig(arrival_rate=rate, horizon_s=horizon, n_runs=7, concurrency=concurrency,
                    client_capacity_bytes=128e9)
    agg = run_many(costs, cfg, 3)
    _assert_same_metrics(agg, desim_oracle.run_many(costs, cfg, 3))
    # every run's column holds its reference means, bit for bit
    (means,) = aggregated
    assert means.shape == (4, cfg.n_runs)
    for column, seed in zip(means.T, range(3, 3 + cfg.n_runs)):
        run = desim_oracle.simulate(costs, cfg, seed)
        assert repr(column.tolist()) == repr([getattr(run, name) for name in _MEANS]), seed
    # every block fits the budget, unless it is one run too long for it
    assert sum(runs for runs, _ in shapes) == cfg.n_runs
    assert all(runs * width <= block or runs == 1 for runs, width in shapes), shapes


@pytest.mark.parametrize("concurrency", [SERIAL, PIPELINED])
def test_run_many_with_many_segments_matches_reference(concurrency, monkeypatch):
    """Segments of 3 gaps, on both sides, so every run draws again."""
    monkeypatch.setattr(arrivals, "draw_size", _fixed_draw(3))
    monkeypatch.setattr(desim_oracle, "draw_size", _fixed_draw(3))
    costs = phase_costs(CM, "sg", build_preset("resnet18", "tinyimagenet"), mode="table")
    cfg = SimConfig(arrival_rate=2e-2, horizon_s=20_000.0, n_runs=5, concurrency=concurrency,
                    client_capacity_bytes=128e9)
    _assert_same_metrics(run_many(costs, cfg, 11), desim_oracle.run_many(costs, cfg, 11))


# Each shipped sweep's distinct problems at --runs 4, and the draw groups
# among the points run_points hands to run_group.
_DISTINCT = {"fig4_c100": 10, "fig5_tiny": 16}
_GROUPS = {"fig4_c100": 5, "fig5_tiny": 16}


def _draw_groups(points) -> int:
    return len({engine.run_key(*point)[1:] for point in points})


@pytest.mark.parametrize("spec", ["fig4_c100", "fig5_tiny"])
def test_sweep_csv_matches_reference(spec, tmp_path, monkeypatch, capsys):
    """The CSV against one whose every point is run alone by the reference
    engine; the reference must stand in for every draw group."""
    argv = ["sweep", f"@{spec}", "--runs", "4", "--jobs", "1", "--seed", "0"]
    assert main(argv + ["--out", str(tmp_path / "new")]) == 0
    sizes = []
    groups = []

    def reference_group(points, base_seed=0):
        sizes.append(len(points))
        groups.append(_draw_groups(points))
        return [desim_oracle.run_many(costs, config, base_seed) for costs, config in points]

    monkeypatch.setattr(sweep, "run_group", reference_group)
    assert main(argv + ["--out", str(tmp_path / "ref")]) == 0
    assert sum(groups) == _GROUPS[spec] and sum(sizes) == _DISTINCT[spec]
    new = (tmp_path / "new" / f"{spec}.csv").read_bytes()
    assert new == (tmp_path / "ref" / f"{spec}.csv").read_bytes()


# Small bundles, so that capacities of a few bytes give every case of
# sharing: repeats, unbounded, too small for one bundle, and distinct
# capacities that hold the same number of bundles (20 and 29 hold two).
_SHARING_COSTS = [
    dataclasses.replace(
        phase_costs(CM, proto, build_preset("resnet32", "cifar100"), mode="table"),
        offline_latency_s=off, online_latency_s=on,
        client_storage_delta_bytes=client_b, server_storage_delta_bytes=server_b,
    )
    for proto, off, on, client_b, server_b in (
        ("sg", 2.0, 1.0, 10, 0),
        ("cg", 0.5, 3.0, 0, 7),
        ("cg", 4.0, 0.5, 10, 7),
    )
]
_CAPACITIES = [math.inf, 0.0, 5.0, 10.0, 20.0, 29.0, 30.0]


# Costs that share the offline latency of one _SHARING_COSTS entry and
# the online latency of another, with the first one's bundle bytes, so
# that they group with it in both modes and repeat an off and an on
# value across a group's columns.
_EQUAL_PHASE_COSTS = [
    dataclasses.replace(_SHARING_COSTS[0], online_latency_s=3.0),
    dataclasses.replace(_SHARING_COSTS[1], online_latency_s=0.5),
]


def _grid(costs, clients, servers, rates, horizons, runs, modes, seeds):
    """run_points tasks over the product of the values of each input."""
    product = itertools.product(costs, clients, servers, rates, horizons, runs, modes, seeds)
    return [
        (c, SimConfig(arrival_rate=rate, horizon_s=horizon, n_runs=n_runs,
                      client_capacity_bytes=client, server_capacity_bytes=server,
                      concurrency=concurrency), seed)
        for c, client, server, rate, horizon, n_runs, concurrency, seed in product
    ]


@st.composite
def grids(draw):
    """run_points tasks over a small grid: one to a few values of each
    input of a sweep point."""

    def some(values, most=2):
        return draw(st.lists(values, min_size=1, max_size=most))

    return _grid(
        some(st.sampled_from(_SHARING_COSTS + _EQUAL_PHASE_COSTS)),
        some(st.sampled_from(_CAPACITIES), most=3),
        some(st.sampled_from(_CAPACITIES)),
        some(st.sampled_from([0.0, 0.2, 1.0, 3.0])),
        some(st.floats(1.0, 30.0)),
        some(st.integers(1, 3)),
        some(st.sampled_from([SERIAL, PIPELINED])),
        some(st.integers(0, 3)),
    )


def _cells(rows):
    return [[format_value(row[c]) for c in SWEEP_COLUMNS] for row in rows]


# Groups of two members, each repeating an off or an on value, in each
# mode; two pipelined points whose caps differ (2 and 4 bundles), so
# they draw apart; and in the last two examples two members' 2 * 53 gaps
# fit BLOCK_ELEMENTS but two runs of them do not, so each run is a block.
_PAIRS = [[_SHARING_COSTS[0], _EQUAL_PHASE_COSTS[0]], [_SHARING_COSTS[1], _EQUAL_PHASE_COSTS[1]]]


@settings(max_examples=60, deadline=None)
@given(grids(), st.one_of(st.none(), st.integers(1, 600)))
@example(_grid(_PAIRS[0], [math.inf], [math.inf], [1.0], [20.0], [3], [SERIAL], [1]), None)
@example(_grid(_PAIRS[1], [math.inf], [40.0], [1.0], [20.0], [3], [PIPELINED], [1]), None)
@example(_grid(_SHARING_COSTS[:2], [20.0], [29.0], [3.0], [20.0], [3], [PIPELINED], [1]), None)
@example(_grid(_PAIRS[0], [math.inf], [math.inf], [1.0], [20.0], [3], [SERIAL], [1]), 200)
@example(_grid(_PAIRS[1], [math.inf], [math.inf], [1.0], [20.0], [3], [PIPELINED], [1]), 200)
def test_run_points_sharing_matches_sweep_point(tasks, block):
    """Every cell as sweep_point alone gives it, with BLOCK_ELEMENTS
    (block, when given) small enough that some groups and points pass it."""
    with pytest.MonkeyPatch.context() as mp:
        if block is not None:
            mp.setattr(engine, "BLOCK_ELEMENTS", block)
        assert _cells(run_points(tasks, 1)) == _cells([sweep_point(*t) for t in tasks])


def test_run_points_sharing_matches_sweep_point_in_workers():
    tasks = [
        (c, SimConfig(arrival_rate=1.0, horizon_s=20.0, n_runs=2, client_capacity_bytes=cap,
                      concurrency=concurrency), 1)
        for concurrency in (SERIAL, PIPELINED)
        for c in _SHARING_COSTS
        for cap in (5.0, 20.0, 29.0, math.inf)
    ]
    assert _cells(run_points(tasks, 2)) == _cells([sweep_point(*t) for t in tasks])


def _group(points, concurrency, rate=1.0, horizon=20.0, n_runs=3):
    """(costs, config) points of one rate, horizon and run count, each
    (costs, client capacity, server capacity)."""
    return [
        (costs, SimConfig(arrival_rate=rate, horizon_s=horizon, n_runs=n_runs,
                          client_capacity_bytes=client, server_capacity_bytes=server,
                          concurrency=concurrency))
        for costs, client, server in points
    ]


@st.composite
def draw_groups(draw):
    """A base seed and one to four feasible points of one run count, each
    with its own costs, capacities, rate, horizon and mode, drawn from a
    few values of each so that some share a draw group and some do not."""
    rates = draw(st.lists(st.sampled_from([0.0, 0.2, 1.0, 3.0]), min_size=1, max_size=2))
    horizons = draw(st.lists(st.floats(1.0, 30.0), min_size=1, max_size=2))
    n_runs = draw(st.integers(1, 3))
    candidates = [
        (costs, SimConfig(arrival_rate=rate, horizon_s=horizon, n_runs=n_runs,
                          client_capacity_bytes=client, server_capacity_bytes=server,
                          concurrency=concurrency))
        for costs, client, server, rate, horizon, concurrency in draw(st.lists(
            st.tuples(st.sampled_from(_SHARING_COSTS + _EQUAL_PHASE_COSTS),
                      st.sampled_from(_CAPACITIES), st.sampled_from(_CAPACITIES),
                      st.sampled_from(rates), st.sampled_from(horizons),
                      st.sampled_from([SERIAL, PIPELINED])),
            min_size=1, max_size=8))
    ]
    points = [point for point in candidates if engine.run_key(*point)]
    assume(points)
    return points[:4], draw(st.integers(0, 3))


# Three points whose capacities differ but each hold two bundles (20 and
# 29 client bytes hold two bundles of 10, and 20 server bytes two of 7),
# so they share a key but for costs in both modes.
_TWO_BUNDLES = [
    (_SHARING_COSTS[0], 20.0, math.inf),
    (_EQUAL_PHASE_COSTS[0], 29.0, math.inf),
    (_SHARING_COSTS[1], math.inf, 20.0),
]

# Two draw groups at two rates, horizons and modes, and a third of one
# point whose cap (4 bundles) parts it from the pipelined pair (2).
_MIXED = (
    _group(_TWO_BUNDLES[:2], PIPELINED)
    + _group(_TWO_BUNDLES, SERIAL, rate=3.0, horizon=7.5)
    + _group([(_SHARING_COSTS[0], 40.0, math.inf)], PIPELINED)
)


@settings(max_examples=60, deadline=None)
@given(draw_groups(), st.one_of(st.none(), st.integers(1, 600)))
@example((_group(_TWO_BUNDLES, PIPELINED), 1), None)
@example((_group(_TWO_BUNDLES, PIPELINED), 1), 400)  # blocks of two runs and one
@example((_group(_TWO_BUNDLES, SERIAL), 0), 60)  # a block per run
@example((_group(_TWO_BUNDLES[:1], PIPELINED), 2), None)
@example((_MIXED, 3), None)
@example((_MIXED, 3), 400)  # the serial trio's 3 * 57 gaps make blocks of two runs and one
def test_run_group_matches_each_point_alone(group, block):
    """run_group against each point's run_many alone and the reference
    engine, bit for bit, over points of several rates, horizons, modes and
    caps in one call, with BLOCK_ELEMENTS (block, when given) small enough
    that some calls span several blocks."""
    points, seed = group
    with pytest.MonkeyPatch.context() as mp:
        if block is not None:
            mp.setattr(engine, "BLOCK_ELEMENTS", block)
        alone = [run_many(costs, cfg, seed) for costs, cfg in points]
        result = run_group(points, seed)
    references = [desim_oracle.run_many(costs, cfg, seed) for costs, cfg in points]
    assert len(result) == len(points)
    for mine, one, reference in zip(result, alone, references):
        _assert_same_metrics(mine, one)
        _assert_same_metrics(mine, reference)


@pytest.mark.parametrize("points, concurrency, other", [
    ([(_SHARING_COSTS[0], math.inf, math.inf)], SERIAL, {"n_runs": 2}),
    ([(_SHARING_COSTS[0], math.inf, math.inf)], SERIAL, {"n_runs": 1, "arrival_rate": 2.0}),
    ([(_SHARING_COSTS[0], 20.0, math.inf)], PIPELINED,
     {"n_runs": 4, "client_capacity_bytes": 40.0}),
    ([(_SHARING_COSTS[0], 20.0, math.inf)], PIPELINED, {"n_runs": 2, "concurrency": SERIAL}),
])
def test_run_group_rejects_points_of_different_run_counts(points, concurrency, other):
    """A second point of another run count is refused; of the same run
    count, it is run beside the first whatever else differs."""
    group = _group(points, concurrency)
    config = group[0][1]
    with pytest.raises(ValueError, match="share a run count"):
        run_group(group + [(_SHARING_COSTS[2], dataclasses.replace(config, **other))])
    same_runs = dataclasses.replace(config, **{**other, "n_runs": config.n_runs})
    assert len(run_group(group + [(_SHARING_COSTS[2], same_runs)])) == 2


def _counted(into, function, record=lambda *args: args):
    def call(*args):
        into.append(record(*args))
        return function(*args)
    return call


@pytest.mark.parametrize("spec, distinct", [("fig4_c100", 10), ("fig5_tiny", 16)])
def test_sweep_runs_each_distinct_problem_once(spec, distinct, tmp_path, monkeypatch, capsys):
    sizes = []
    monkeypatch.setattr(sweep, "run_group",
                        _counted(sizes, run_group, lambda points, *_: len(points)))
    argv = ["sweep", f"@{spec}", "--runs", "4", "--jobs", "1", "--out", str(tmp_path)]
    for passes in (1, 2):
        assert main(argv) == 0
        assert sum(sizes) == distinct * passes


def _counted_draws(monkeypatch) -> list[tuple]:
    """The arguments of every arrival draw from now on."""
    draws = []
    monkeypatch.setattr(engine, "poisson_arrival_times",
                        _counted(draws, engine.poisson_arrival_times))
    return draws


def test_fig4_draws_each_rate_once(tmp_path, monkeypatch, capsys):
    """fig4's sg and cg points at one rate differ only in costs, so the
    full profile draws each of its five rates' arrivals once and steps
    both protocols over that draw: one run_group call of ten points in
    five draw groups."""
    sizes = []
    draws = _counted_draws(monkeypatch)
    monkeypatch.setattr(sweep, "run_group", _counted(
        sizes, run_group, lambda points, *_: (len(points), _draw_groups(points))))
    assert main(["sweep", "@fig4_c100", "--jobs", "1", "--out", str(tmp_path)]) == 0
    assert sizes == [(10, 5)]
    assert sorted(rate for rate, *_ in draws) == [1e-4, 3e-4, 1e-3, 3e-3, 1e-2]


class _FreshContextPool:
    """A ProcessPoolExecutor whose workers start with an empty context, as
    under the forkserver and spawn start methods: map runs each call in a
    new contextvars.Context, on pickled copies of the function and its
    arguments, and returns a pickled copy of the result. It starts no
    process; each instance's max_workers is appended to `sizes`."""

    sizes: list = []

    def __init__(self, max_workers=None):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, function, *iterables):
        for args in zip(*iterables):
            function_copy, args_copy = pickle.loads(pickle.dumps((function, args)))
            result = contextvars.Context().run(function_copy, *args_copy)
            yield pickle.loads(pickle.dumps(result))


def test_fig4_in_workers_draws_each_rate_once_under_any_start_method(
    tmp_path, monkeypatch, capsys
):
    """Workers get whole draw groups, so a group is drawn once however its
    worker starts, and the CSV is the serial one. The five groups are
    dealt into two chunks, so the 100 seeds are hashed twice, once per
    worker's run_group call."""
    out = {jobs: tmp_path / jobs for jobs in ("1", "2")}
    assert main(["sweep", "@fig4_c100", "--jobs", "1", "--out", str(out["1"])]) == 0
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _FreshContextPool)
    draws = _counted_draws(monkeypatch)
    made = []
    monkeypatch.setattr(engine, "Gaps", _counted(made, engine.Gaps, len))
    assert main(["sweep", "@fig4_c100", "--jobs", "2", "--out", str(out["2"])]) == 0
    assert sorted(rate for rate, *_ in draws) == [1e-4, 3e-4, 1e-3, 3e-3, 1e-2]
    assert made == [100, 100]
    csv = "fig4_c100.csv"
    assert (out["2"] / csv).read_bytes() == (out["1"] / csv).read_bytes()


def test_run_points_starts_no_more_workers_than_chunks(tmp_path, monkeypatch, capsys):
    """fig4's five draw groups make five chunks at most, so --jobs 16 asks
    the pool for five workers. The stand-in pool starts no process."""
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _FreshContextPool)
    monkeypatch.setattr(_FreshContextPool, "sizes", [])
    assert main(["sweep", "@fig4_c100", "--jobs", "16", "--out", str(tmp_path)]) == 0
    assert _FreshContextPool.sizes == [5]


def test_run_points_seeds_each_seed_once_per_call(monkeypatch):
    """Within one run_points call over one seed range, as every CLI sweep
    runs, each seed is hashed once and its gaps are drawn once, however
    many points run it: a seed's generator ends where drawing the widest
    prefix any point read leaves it. A second call hashes and draws them
    all again, and nothing is kept between calls, not even in a reference
    cycle left for the garbage collector."""
    generators = {}
    widest = collections.Counter()
    made = []

    class WatchedGaps(arrivals.Gaps):
        def __init__(self, seeds):
            super().__init__(seeds)
            self.seeds = tuple(seeds)
            for seed, rng in zip(self.seeds, self._rngs):
                assert seed not in generators
                generators[seed] = rng
            made.append(weakref.ref(self))

        def first(self, n):
            for seed in self.seeds:
                widest[seed] = max(widest[seed], n)
            return super().first(n)

    tasks = [
        (c, SimConfig(arrival_rate=rate, horizon_s=50.0, n_runs=3, concurrency=SERIAL), 0)
        for c in _SHARING_COSTS
        for rate in (0.5, 2.0, 1.0)
    ]
    expected = _cells([sweep_point(*t) for t in tasks])
    monkeypatch.setattr(engine, "Gaps", WatchedGaps)
    for _ in range(2):
        generators.clear()
        widest.clear()
        made.clear()
        gc.disable()
        try:
            assert _cells(run_points(tasks, 1)) == expected
            assert len(made) == 1 and made[0]() is None
        finally:
            gc.enable()
        assert sorted(generators) == [0, 1, 2]
        assert widest == {s: arrivals.draw_size(2.0, 50.0) for s in range(3)}
        for seed, rng in generators.items():
            fresh = np.random.default_rng(seed)
            fresh.standard_exponential(widest[seed])
            assert rng.bit_generator.state == fresh.bit_generator.state, seed


def test_points_of_several_blocks_hash_each_seed_once(monkeypatch):
    """Three points at two rates whose runs span a block each still build
    each seed's generator once in one run_points call: both draw groups
    read every block's Gaps."""
    tasks = [
        (c, SimConfig(arrival_rate=rate, horizon_s=50.0, n_runs=4, concurrency=SERIAL), 0)
        for c, rate in ((_SHARING_COSTS[0], 0.5), (_SHARING_COSTS[0], 2.0),
                        (_SHARING_COSTS[1], 2.0))
    ]
    expected = _cells([sweep_point(*t) for t in tasks])
    blocks = []
    monkeypatch.setattr(engine, "BLOCK_ELEMENTS", arrivals.draw_size(2.0, 50.0))
    monkeypatch.setattr(engine, "Gaps", _counted(blocks, engine.Gaps, list))
    assert _cells(run_points(tasks, 1)) == expected
    assert blocks == [[0], [1], [2], [3]]


@st.composite
def gap_points(draw):
    """Two to four (rate, horizon, first seed offset) points over one seed
    range, in ascending, descending or shuffled order of expected arrivals."""
    points = draw(st.lists(
        st.tuples(st.floats(1e-3, 5.0), st.floats(0.5, 200.0), st.integers(0, 2)),
        min_size=2, max_size=4,
    ))
    order = draw(st.sampled_from(["ascending", "descending", "shuffled"]))
    if order == "shuffled":
        return draw(st.permutations(points))
    return sorted(points, key=lambda p: p[0] * p[1], reverse=order == "descending")


@settings(max_examples=80, deadline=None)
@given(
    gap_points(),
    st.integers(0, 2**32),
    st.integers(1, 6),
    st.one_of(st.none(), st.integers(1, 20)),
    st.one_of(st.none(), st.integers(0, 600)),
)
@example([(1.0, 50.0, 0), (0.5, 50.0, 1), (2.0, 50.0, 0)], 0, 3, 4, None)  # many segments
@example([(1.0, 50.0, 0), (2.0, 50.0, 0)], 0, 4, 4, 400)  # two rates, one block
@example([(2.0, 100.0, 0), (0.2, 100.0, 2)], 5, 4, None, 300)  # a block per run, then one
@example([(1.0, 50.0, 0), (3.0, 50.0, 1)], 0, 2, None, 0)  # a block per run
@example([(0.5, 50.0, 0), (0.5, 50.0, 1), (1.0, 50.0, 0)], 0, 3, None, None)  # two seed ranges
def test_kept_gaps_match_per_run_draws(points, base, n, draw, block):
    """Points run through run_group as run_points runs them, one call per
    seed range, the same seeds at several rates and horizons, against one
    generator per seed: every run's arrivals bit for bit, with
    BLOCK_ELEMENTS (block, when given) small enough that some calls span
    several blocks. A call hashes each of its seeds once, and each block's
    Gaps keeps its seeds' first gaps."""
    costs = _SHARING_COSTS[0]
    made = []
    calls = []
    drawn = []

    class WatchedGaps(arrivals.Gaps):
        def __init__(self, seeds):
            super().__init__(seeds)
            self.seeds = seeds
            made.append(self)

    ranges = {}
    for rate, horizon, offset in points:
        cfg = SimConfig(arrival_rate=rate, horizon_s=horizon, n_runs=n, concurrency=SERIAL)
        ranges.setdefault(range(base + offset, base + offset + n), []).append((costs, cfg))
    with pytest.MonkeyPatch.context() as mp:
        if draw is not None:
            mp.setattr(arrivals, "draw_size", _fixed_draw(draw))
            mp.setattr(desim_oracle, "draw_size", _fixed_draw(draw))
        if block is not None:
            mp.setattr(engine, "BLOCK_ELEMENTS", block)
        mp.setattr(engine, "Gaps", WatchedGaps)
        mp.setattr(engine, "poisson_arrival_times", _counted(calls, engine.poisson_arrival_times))
        # each draw's arrivals, cut to its widest run, as summarize_run reads them
        mp.setattr(engine, "summarize_run",
                   _counted(drawn, summarize_run, lambda times, *_: times))
        for seeds, group in ranges.items():
            run_group(group, seeds.start)
        assert len(calls) == len(drawn)
        read = collections.Counter()
        for (rate, horizon, gaps), times in zip(calls, drawn):
            assert len(times) == len(gaps.seeds)
            for row, seed in zip(times, gaps.seeds):
                assert np.array_equal(row[row < math.inf],
                                      desim_oracle.draw_arrivals(rate, horizon, seed))
                read[rate, horizon, seed] += 1
    assert read == collections.Counter(
        (rate, horizon, seed)
        for rate, horizon, offset in set(points) for seed in range(base + offset, base + offset + n)
    )
    assert sorted(s for gaps in made for s in gaps.seeds) == sorted(s for r in ranges for s in r)
    for gaps in made:
        width = gaps.kept.shape[1]
        for row, seed in zip(gaps.kept, gaps.seeds):
            assert np.array_equal(row, np.random.default_rng(seed).standard_exponential(width))


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(0, 420), min_size=1, max_size=8),
    st.lists(st.integers(0, 2**32), min_size=1, max_size=4),
)
@example([50, 100, 20, 130], [0])  # widen, read a prefix, widen again
@example([0, 10, 0, 420], [0, 1, 2**32])
def test_gaps_read_each_seeds_first_gaps(reads, seeds):
    """Any reads, in any order, return each seed's first n gaps as one
    draw gives them, and keep only the widest read."""
    drawn = [np.random.default_rng(seed).standard_exponential(420) for seed in seeds]
    gaps = arrivals.Gaps(seeds)
    for i, n in enumerate(reads):
        assert np.array_equal(gaps.first(n), np.stack([d[:n] for d in drawn]))
        assert gaps.kept.shape == (len(seeds), max(reads[: i + 1]))


def test_run_points_keeps_at_most_block_elements_gaps(monkeypatch):
    """With BLOCK_ELEMENTS small enough that three points at each of three
    rates span two blocks of two runs, each block draws from one new Gaps
    that all three draw groups read: its kept matrix never passes
    BLOCK_ELEMENTS, no block's Gaps outlives its block, and every cell is
    as sweep_point gives it. Live Gaps are tracked by weak reference."""
    peaks = []
    rows = []
    live = weakref.WeakSet()

    class WatchedGaps(arrivals.Gaps):
        def __init__(self, seeds):
            super().__init__(seeds)
            rows.append(len(seeds))
            live.add(self)

        def first(self, n):
            gaps = super().first(n)
            peaks.append(sum(g.kept.size for g in live))
            assert len(live) == 1
            return gaps

    tasks = [
        (c, SimConfig(arrival_rate=rate, horizon_s=60.0, n_runs=4, concurrency=SERIAL), 0)
        for c in _SHARING_COSTS
        for rate in (0.5, 2.0, 1.0)
    ]
    expected = _cells([sweep_point(*t) for t in tasks])
    block = 2 * len(_SHARING_COSTS) * arrivals.draw_size(2.0, 60.0)
    monkeypatch.setattr(engine, "BLOCK_ELEMENTS", block)
    monkeypatch.setattr(engine, "Gaps", WatchedGaps)
    gc.disable()
    try:
        assert _cells(run_points(tasks, 1)) == expected
    finally:
        gc.enable()
    assert rows == [2, 2]
    assert 0 < max(peaks) <= block
    assert not live


def test_sweep_in_workers_writes_the_same_csv(tmp_path, capsys):
    for jobs in ("1", "2"):
        argv = ["sweep", "@fig4_c100", "--jobs", jobs, "--out", str(tmp_path / jobs)]
        assert main(argv) == 0
    csv = "fig4_c100.csv"
    assert (tmp_path / "2" / csv).read_bytes() == (tmp_path / "1" / csv).read_bytes()
