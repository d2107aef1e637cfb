"""Discrete-event simulation of two-phase private-inference serving."""

from .arrivals import poisson_arrival_times
from .config import PIPELINED, SERIAL, ConfigInfeasible, SimConfig
from .engine import capacity_bundles, run_many, simulate, stability_limit
from .metrics import AggregateMetrics, RequestRecord, RunMetrics, aggregate
from .sweep import SWEEP_COLUMNS, run_points, run_sweep, sweep_point, write_sweep_csv

__all__ = [
    "AggregateMetrics",
    "ConfigInfeasible",
    "PIPELINED",
    "RequestRecord",
    "RunMetrics",
    "SERIAL",
    "SWEEP_COLUMNS",
    "SimConfig",
    "aggregate",
    "capacity_bundles",
    "poisson_arrival_times",
    "run_many",
    "run_points",
    "run_sweep",
    "simulate",
    "stability_limit",
    "sweep_point",
    "write_sweep_csv",
]
