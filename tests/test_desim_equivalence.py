"""The recurrence engine against the event-by-event reference in desim_oracle.

Every per-request time must be equal with ==, not merely close: the sweep
CSVs are compared byte for byte.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import desim_oracle
from pisim.cli import main
from pisim.costmodel import load_shipped_model, phase_costs
from pisim.desim import PIPELINED, SERIAL, SimConfig
from pisim.desim.engine import pipelined_schedule, serial_schedule, simulate
from pisim.netarch import build_preset


def _oracle_arrays(records) -> list[np.ndarray]:
    def opt(t):
        return math.nan if t is None else t

    return [
        np.array([r.arrival_s for r in records], dtype=np.float64),
        np.array([r.bundle_ready_s for r in records], dtype=np.float64),
        np.array([opt(r.online_start_s) for r in records], dtype=np.float64),
        np.array([opt(r.done_s) for r in records], dtype=np.float64),
    ]


def _assert_same(schedule, records) -> None:
    got = [schedule.arrival, schedule.bundle_ready, schedule.online_start, schedule.done]
    for name, mine, ref in zip(("arrival", "bundle_ready", "online_start", "done"),
                               got, _oracle_arrays(records)):
        assert mine.dtype == np.float64, name
        assert np.array_equal(mine, ref, equal_nan=True), (name, mine, ref)
    assert schedule.records() == tuple(records)


@st.composite
def runs(draw):
    """(arrivals, off, on, horizon). On the integer grid, arrivals, bundle
    completions and online completions coincide often, which exercises the
    reference heap's tie-break order."""
    if draw(st.booleans()):
        arrivals = [float(t) for t in draw(st.lists(st.integers(0, 40), max_size=40))]
        off = float(draw(st.integers(0, 6)))
        on = float(draw(st.integers(0, 6)))
        horizon = float(draw(st.integers(1, 60)))
    else:
        times = st.floats(0.0, 100.0, allow_nan=False, allow_infinity=False)
        arrivals = draw(st.lists(times, max_size=40))
        if arrivals:
            arrivals += draw(st.lists(st.sampled_from(arrivals), max_size=10))
        phase = st.one_of(st.just(0.0), st.floats(0.0, 20.0))
        off = draw(phase)
        on = draw(phase)
        horizon = draw(st.floats(0.5, 150.0))
    return np.array(sorted(arrivals), dtype=np.float64), off, on, horizon


caps = st.one_of(st.sampled_from([1, 2, math.inf]), st.integers(3, 6))


@settings(max_examples=400, deadline=None)
@given(runs())
@example((np.empty(0), 1.0, 1.0, 10.0))
def test_serial_schedule_matches_reference(run):
    arrivals, off, on, horizon = run
    schedule, peak = serial_schedule(arrivals, off, on, horizon)
    records, ref_peak = desim_oracle.simulate_serial(arrivals, off, on, horizon)
    _assert_same(schedule, records)
    assert peak == ref_peak


@settings(max_examples=400, deadline=None)
@given(runs(), caps)
@example((np.empty(0), 1.0, 1.0, 10.0), 1)
@example((np.array([0.0, 0.0, 1.0, 1.0, 2.0]), 1.0, 1.0, 3.0), 2)
def test_pipelined_schedule_matches_reference(run, cap):
    arrivals, off, on, horizon = run
    schedule, peak = pipelined_schedule(arrivals, off, on, cap, horizon)
    records, ref_peak = desim_oracle.simulate_pipelined(arrivals, off, on, cap, horizon)
    _assert_same(schedule, records)
    assert peak == ref_peak
    assert type(peak) is int


@pytest.mark.parametrize(
    "proto, model, dataset, concurrency, rate, horizon, cap_gb",
    [
        ("sg", "resnet32", "cifar100", SERIAL, 2e-2, 20_000.0, None),
        ("cg", "resnet18", "cifar100", PIPELINED, 2e-3, 100_000.0, None),
        ("sg", "resnet18", "tinyimagenet", PIPELINED, 4e-3, 86_400.0, 128.0),
    ],
)
def test_simulate_matches_reference(proto, model, dataset, concurrency, rate, horizon, cap_gb):
    costs = phase_costs(load_shipped_model("table"), proto, build_preset(model, dataset))
    cfg = SimConfig(
        arrival_rate=rate,
        horizon_s=horizon,
        concurrency=concurrency,
        client_capacity_bytes=None if cap_gb is None else cap_gb * 1e9,
    )
    for seed in range(3):
        assert simulate(costs, cfg, seed) == desim_oracle.simulate(costs, cfg, seed)


@pytest.mark.parametrize("spec", ["fig4_c100", "fig5_tiny"])
def test_sweep_csv_matches_reference(spec, tmp_path, monkeypatch, capsys):
    argv = ["sweep", f"@{spec}", "--runs", "4", "--jobs", "1", "--seed", "0"]
    assert main(argv + ["--out", str(tmp_path / "new")]) == 0
    monkeypatch.setattr("pisim.desim.engine.simulate", desim_oracle.simulate)
    assert main(argv + ["--out", str(tmp_path / "ref")]) == 0
    new = (tmp_path / "new" / f"{spec}.csv").read_bytes()
    assert new == (tmp_path / "ref" / f"{spec}.csv").read_bytes()
