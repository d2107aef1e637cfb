"""Discrete-event serving simulator: arrivals, queueing, storage caps."""

import dataclasses
import math

import numpy as np
import pytest

from pisim.costmodel import load_shipped_model, phase_costs
from pisim.desim import (
    ConfigInfeasible,
    PIPELINED,
    SERIAL,
    SWEEP_COLUMNS,
    SimConfig,
    aggregate,
    capacity_bundles,
    poisson_arrival_times,
    run_many,
    run_schedule,
    simulate,
    stability_limit,
    sweep_point,
    write_sweep_csv,
)
from pisim.desim.arrivals import Gaps
from pisim.desim.config import MAX_EXPECTED_ARRIVALS
from pisim.netarch import build_preset

CM = load_shipped_model()


def costs_for(proto="sg", model="resnet32", dataset="cifar100"):
    return phase_costs(CM, proto, build_preset(model, dataset), mode="table")


def finished_times(schedule):
    """(arrival, bundle_ready, online_start, done) of the requests that finished."""
    done = ~np.isnan(schedule.done)
    return (schedule.arrival[done], schedule.bundle_ready[done],
            schedule.online_start[done], schedule.done[done])


# --- arrivals ---------------------------------------------------------------


def one_run(rate, horizon, seed):
    """Seed's arrival times before the horizon, drawn as a block of one."""
    (times,) = poisson_arrival_times(rate, horizon, Gaps([seed]))
    return times[times < math.inf]


def test_zero_rate_means_no_arrivals():
    assert one_run(0.0, 1000.0, 0).size == 0


def test_arrivals_sorted_and_inside_horizon():
    t = one_run(0.5, 5000.0, 1)
    assert np.all(np.diff(t) >= 0)
    assert t.size == 0 or (t[0] >= 0 and t[-1] < 5000.0)


def test_arrival_count_within_three_sigma():
    rate, horizon = 2.0, 50_000.0
    n = one_run(rate, horizon, 2).size
    lam = rate * horizon
    assert abs(n - lam) <= 3 * math.sqrt(lam)


def test_interarrival_moments():
    t = one_run(1.0, 200_000.0, 3)
    gaps = np.diff(t)
    # exponential(1): mean 1, var 1
    assert abs(gaps.mean() - 1.0) < 0.02
    assert abs(gaps.var() - 1.0) < 0.05


# --- serial engine ----------------------------------------------------------


def test_serial_idle_latency_is_sum_of_phases():
    costs = costs_for()
    cfg = SimConfig(arrival_rate=1e-4, horizon_s=400_000.0, concurrency=SERIAL)
    m = simulate(costs, cfg, seed=5)
    arrival, ready, online, done = finished_times(run_schedule(costs, cfg, seed=5)[0])
    total = costs.offline_latency_s + costs.online_latency_s
    assert m.completed > 0
    latency = done - arrival
    assert np.all(latency >= total - 1e-9)
    assert np.all(online - np.maximum(arrival, ready) == 0.0)
    # with sparse arrivals most requests see an idle server
    idle = np.abs(latency - total) < 1e-9
    assert idle.sum() >= m.completed // 2


def test_latency_decomposition_identity():
    costs = costs_for("cg", "resnet18", "cifar100")
    for mode in (SERIAL, PIPELINED):
        cfg = SimConfig(arrival_rate=2e-3, horizon_s=100_000.0, concurrency=mode)
        arrival, ready, online, done = finished_times(run_schedule(costs, cfg, seed=1)[0])
        assert arrival.size
        queue_wait = online - np.maximum(arrival, ready)
        parts = np.maximum(ready - arrival, 0.0) + queue_wait + (done - online)
        slack = online - np.maximum(np.maximum(arrival, ready), 0.0) - queue_wait
        assert parts + slack == pytest.approx(done - arrival, abs=1e-6)


def test_fifo_order_and_monotone_completion():
    costs = costs_for("cg")
    cfg = SimConfig(arrival_rate=5e-3, horizon_s=50_000.0, concurrency=PIPELINED)
    schedule, _ = run_schedule(costs, cfg, seed=3)
    done = finished_times(schedule)[3]
    assert done.size and np.all(np.diff(done) >= 0)
    # request k is the k-th arrival and starts online no earlier than k - 1
    assert np.all(np.diff(schedule.arrival) >= 0)
    started = schedule.online_start[~np.isnan(schedule.online_start)]
    assert np.all(np.diff(started) >= 0)


def test_censoring_leaves_unfinished_records():
    costs = costs_for()
    cfg = SimConfig(arrival_rate=2e-2, horizon_s=20_000.0, concurrency=SERIAL)
    m = simulate(costs, cfg, seed=0)
    assert m.saturated
    assert m.completed < m.arrived
    schedule, _ = run_schedule(costs, cfg, seed=0)
    unfinished = np.isnan(schedule.done)
    assert unfinished.sum() == m.arrived - m.completed > 0
    assert np.all(np.isnan(schedule.done[unfinished] - schedule.arrival[unfinished]))


def test_stability_limit_serial_and_pipelined():
    costs = costs_for()
    serial = stability_limit(costs, SimConfig(arrival_rate=1e-3, concurrency=SERIAL))
    assert serial == pytest.approx(1.0 / (costs.offline_latency_s + costs.online_latency_s))
    free = SimConfig(arrival_rate=1e-3, concurrency=PIPELINED)
    assert stability_limit(costs, free) == pytest.approx(1.0 / costs.online_latency_s)
    one_slot = SimConfig(
        arrival_rate=1e-3,
        concurrency=PIPELINED,
        client_capacity_bytes=float(costs.client_storage_delta_bytes),
    )
    assert capacity_bundles(costs, one_slot) == 1
    assert stability_limit(costs, one_slot) == pytest.approx(1.0 / costs.offline_latency_s)


def test_saturated_flag_tracks_limit():
    costs = costs_for()
    lim = stability_limit(costs, SimConfig(arrival_rate=1.0, concurrency=SERIAL))
    below = simulate(costs, SimConfig(arrival_rate=lim * 0.5, horizon_s=50_000, concurrency=SERIAL))
    above = simulate(costs, SimConfig(arrival_rate=lim * 2.0, horizon_s=50_000, concurrency=SERIAL))
    assert not below.saturated
    assert above.saturated
    assert above.mean_latency_s > below.mean_latency_s


def test_pipelined_more_client_storage_helps():
    costs = costs_for("sg", "resnet18", "tinyimagenet")
    means = []
    for gb in (64.0, 128.0, 256.0):
        cfg = SimConfig(
            arrival_rate=0.004,
            horizon_s=86_400.0,
            concurrency=PIPELINED,
            client_capacity_bytes=gb * 1e9,
        )
        means.append(simulate(costs, cfg, seed=0).mean_latency_s)
    assert means[0] > means[1] > means[2]


def test_peak_storage_respects_capacity():
    costs = costs_for("sg", "resnet18", "tinyimagenet")
    cap = 128.0e9
    cfg = SimConfig(
        arrival_rate=0.004,
        horizon_s=86_400.0,
        concurrency=PIPELINED,
        client_capacity_bytes=cap,
    )
    m = simulate(costs, cfg, seed=2)
    assert 0 < m.peak_client_storage_bytes <= cap
    bundle = costs.client_storage_delta_bytes
    assert m.peak_client_storage_bytes == capacity_bundles(costs, cfg) * bundle


def test_infeasible_capacity_raises():
    costs = costs_for("sg", "resnet18", "cifar100")
    cfg = SimConfig(
        arrival_rate=1e-3, concurrency=SERIAL, client_capacity_bytes=8.0e9
    )
    with pytest.raises(ConfigInfeasible):
        simulate(costs, cfg)


@pytest.mark.parametrize("side", ["server_capacity_bytes", "client_capacity_bytes"])
@pytest.mark.parametrize("concurrency", [SERIAL, PIPELINED])
def test_infinite_capacities_are_unbounded(concurrency, side):
    costs = costs_for()
    cfg = SimConfig(arrival_rate=1e-3, horizon_s=20_000.0, concurrency=concurrency,
                    server_capacity_bytes=math.inf, client_capacity_bytes=math.inf)
    assert capacity_bundles(costs, cfg) == math.inf
    # a capacity far above the requests in the horizon serves them alike
    ample = dataclasses.replace(cfg, **{side: 1e30})
    assert simulate(costs, cfg, seed=1) == simulate(costs, ample, seed=1)


def test_simconfig_validation():
    with pytest.raises(ValueError):
        SimConfig(arrival_rate=-1.0)
    with pytest.raises(ValueError):
        SimConfig(arrival_rate=1e-3, horizon_s=0.0)
    with pytest.raises(ValueError):
        SimConfig(arrival_rate=1e-3, concurrency="warp")
    with pytest.raises(ValueError):
        SimConfig(arrival_rate=1e-3, n_runs=0)
    for rate, horizon in ((MAX_EXPECTED_ARRIVALS, 1.0), (1e308, 86400.0), (1e-3, 1e308)):
        with pytest.raises(ConfigInfeasible, match="arrivals per run"):
            SimConfig(arrival_rate=rate, horizon_s=horizon)
    SimConfig(arrival_rate=MAX_EXPECTED_ARRIVALS / 2, horizon_s=1.0)


def test_simulate_is_deterministic():
    costs = costs_for("cg")
    cfg = SimConfig(arrival_rate=1e-3, horizon_s=50_000.0, concurrency=PIPELINED)
    a = simulate(costs, cfg, seed=42)
    b = simulate(costs, cfg, seed=42)
    assert a == b
    first, again = (run_schedule(costs, cfg, seed=42)[0] for _ in range(2))
    for name in ("arrival", "bundle_ready", "online_start", "done"):
        assert np.array_equal(getattr(first, name), getattr(again, name), equal_nan=True)
    assert not np.array_equal(first.arrival, run_schedule(costs, cfg, seed=43)[0].arrival)


# --- aggregation and sweeps -------------------------------------------------


def test_run_many_ci_shrinks_with_more_runs():
    costs = costs_for("cg")
    base = dict(arrival_rate=1e-3, horizon_s=30_000.0, concurrency=PIPELINED)
    small = run_many(costs, SimConfig(n_runs=4, **base), base_seed=0)
    big = run_many(costs, SimConfig(n_runs=64, **base), base_seed=100)
    assert small.ci95_latency_s > big.ci95_latency_s
    ratio = small.ci95_latency_s / big.ci95_latency_s
    # 16x the runs shrinks the interval about 4x
    assert 2.0 < ratio < 8.0


def test_sweep_point_schema_and_infeasible_row():
    costs = costs_for("sg", "resnet18", "cifar100")
    ok_cfg = SimConfig(arrival_rate=1e-4, horizon_s=30_000.0, n_runs=2, concurrency=SERIAL)
    row = sweep_point(costs, ok_cfg)
    assert list(row) == SWEEP_COLUMNS
    assert row["feasible"] is True
    assert row["failure"] == ""

    bad_cfg = dataclasses.replace(ok_cfg, client_capacity_bytes=8.0e9)
    bad = sweep_point(costs, bad_cfg)
    assert list(bad) == SWEEP_COLUMNS
    assert bad["feasible"] is False
    assert "bundle" in bad["failure"]
    assert math.isnan(bad["mean_latency_s"])


def test_write_sweep_csv_deterministic(tmp_path):
    costs = costs_for()
    cfg = SimConfig(arrival_rate=1e-4, horizon_s=30_000.0, n_runs=2, concurrency=SERIAL)
    rows = [sweep_point(costs, cfg)]
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_sweep_csv(rows, p1)
    write_sweep_csv(rows, p2)
    assert p1.read_bytes() == p2.read_bytes()
    header = p1.read_text().splitlines()[0]
    assert header == ",".join(SWEEP_COLUMNS)


def test_aggregate_means_match_hand_average():
    costs = costs_for("cg")
    cfg = SimConfig(arrival_rate=1e-3, horizon_s=20_000.0, n_runs=3, concurrency=SERIAL)
    runs = [simulate(costs, cfg, seed=s) for s in range(3)]
    agg = run_many(costs, cfg)
    assert agg.mean_latency_s == pytest.approx(np.mean([r.mean_latency_s for r in runs]))
    assert agg.arrived == sum(r.arrived for r in runs)
    assert agg.completed == sum(r.completed for r in runs)
    assert agg.peak_client_storage_bytes == max(r.peak_client_storage_bytes for r in runs)
    assert agg.peak_server_storage_bytes == max(r.peak_server_storage_bytes for r in runs)

    # columns are runs; the second completed nothing, so it is skipped
    means = np.array([
        [10.0, math.nan, 20.0, 36.0],
        [1.0, math.nan, 2.0, 6.0],
        [0.5, math.nan, 0.25, 0.75],
        [3.0, math.nan, 3.0, 3.0],
    ])
    agg = aggregate(means, arrived=40, completed=31, saturated=True,
                    peak_client=10**15, peak_server=10**14)
    assert agg.mean_latency_s == pytest.approx(22.0)
    assert agg.ci95_latency_s == pytest.approx(1.96 * np.std([10, 20, 36], ddof=1) / math.sqrt(3))
    assert agg.mean_precompute_wait_s == pytest.approx(3.0)
    assert agg.mean_queue_wait_s == pytest.approx(0.5)
    assert agg.mean_online_s == 3.0
    assert (agg.arrived, agg.completed, agg.saturated) == (40, 31, True)
    assert (agg.peak_client_storage_bytes, agg.peak_server_storage_bytes) == (10**15, 10**14)

    # one run left: no interval; none left: NaN means
    one = aggregate(means[:, :2], 5, 1, False, 0, 0)
    assert (one.mean_latency_s, one.ci95_latency_s) == (10.0, 0.0)
    none = aggregate(means[:, 1:2], 5, 0, False, 0, 0)
    assert math.isnan(none.mean_latency_s) and math.isnan(none.mean_online_s)
    assert none.ci95_latency_s == 0.0
