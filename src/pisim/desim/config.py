"""Simulation configuration."""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..errors import PisimError

SERIAL = "serial"
PIPELINED = "pipelined"

# Upper bound, exclusive, on a run's expected arrival count
# arrival_rate * horizon_s. A run keeps several float64 timelines of its
# requests, 8 GB each at this count, so the bound rejects only runs that
# can never fit in memory; runs far below it can still exhaust a machine.
MAX_EXPECTED_ARRIVALS = 1e9


class ConfigInfeasible(PisimError, ValueError):
    """The configuration can never serve a request."""

    exit_code = 3
    prefix = "infeasible"


@dataclass(frozen=True)
class SimConfig:
    """One serving scenario.

    concurrency picks the resource model. "serial" runs each request's
    offline and online phases back to back on one server, so phases
    never overlap and at most one precompute bundle exists at a time.
    "pipelined" precomputes bundles ahead of demand with unbounded
    offline parallelism, holding as many as storage capacity allows,
    while the online phase stays serial. A capacity of math.inf is
    unlimited.
    """

    arrival_rate: float
    horizon_s: float = 86400.0
    n_runs: int = 100
    server_capacity_bytes: float = 1e13
    client_capacity_bytes: float = math.inf
    concurrency: str = SERIAL

    def __post_init__(self):
        # Each check is written so that NaN fails it.
        if not 0 <= self.arrival_rate < math.inf:
            raise ConfigInfeasible(
                f"arrival rate must be finite and non-negative, got {self.arrival_rate}"
            )
        if not 0 < self.horizon_s < math.inf:
            raise ConfigInfeasible(f"horizon must be finite and positive, got {self.horizon_s}")
        if not self.arrival_rate * self.horizon_s < MAX_EXPECTED_ARRIVALS:
            raise ConfigInfeasible(
                f"arrival rate {self.arrival_rate:g} over horizon {self.horizon_s:g} s "
                f"expects {self.arrival_rate * self.horizon_s:g} arrivals per run; "
                f"the limit is {MAX_EXPECTED_ARRIVALS:g}"
            )
        for name in ("server_capacity_bytes", "client_capacity_bytes"):
            if math.isnan(getattr(self, name)):
                raise ConfigInfeasible(f"{name} is NaN")
        if self.n_runs < 1:
            raise ConfigInfeasible(f"n_runs must be at least 1, got {self.n_runs}")
        if self.concurrency not in (SERIAL, PIPELINED):
            raise ConfigInfeasible(
                f"concurrency must be {SERIAL!r} or {PIPELINED!r}, "
                f"got {self.concurrency!r}"
            )
