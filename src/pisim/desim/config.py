"""Simulation configuration."""

from __future__ import annotations

from dataclasses import dataclass

SERIAL = "serial"
PIPELINED = "pipelined"


class ConfigInfeasible(ValueError):
    """The configuration can never serve a request."""


@dataclass(frozen=True)
class SimConfig:
    """One serving scenario.

    concurrency picks the resource model. "serial" runs each request's
    offline and online phases back to back on one server, so phases
    never overlap and at most one precompute bundle exists at a time.
    "pipelined" precomputes bundles ahead of demand with unbounded
    offline parallelism, holding as many as storage capacity allows,
    while the online phase stays serial. Capacities of None are
    unlimited.
    """

    arrival_rate: float
    horizon_s: float = 86400.0
    n_runs: int = 100
    server_capacity_bytes: float | None = 1e13
    client_capacity_bytes: float | None = None
    concurrency: str = SERIAL
    keep_records: bool = True

    def __post_init__(self):
        if self.arrival_rate < 0:
            raise ConfigInfeasible(f"negative arrival rate {self.arrival_rate}")
        if self.horizon_s <= 0:
            raise ConfigInfeasible(f"horizon must be positive, got {self.horizon_s}")
        if self.n_runs < 1:
            raise ConfigInfeasible(f"n_runs must be at least 1, got {self.n_runs}")
        if self.concurrency not in (SERIAL, PIPELINED):
            raise ConfigInfeasible(
                f"concurrency must be {SERIAL!r} or {PIPELINED!r}, "
                f"got {self.concurrency!r}"
            )
