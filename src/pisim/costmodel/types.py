"""Shared cost-model types and errors."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING

from ..errors import PisimError

if TYPE_CHECKING:
    from .formula import Columns


class CostModelError(PisimError):
    """Root of the cost model's errors."""


class InvalidCostInput(CostModelError, ValueError):
    """A cost, rate, knob factor, bandwidth, mode or protocol out of its domain."""


class Protocol(str, enum.Enum):
    """Which party garbles: the protocol variant under study."""

    SERVER_GARBLER = "server_garbler"
    CLIENT_GARBLER = "client_garbler"

    @classmethod
    def parse(cls, value) -> "Protocol":
        if isinstance(value, Protocol):
            return value
        key = str(value).strip().lower()
        aliases = {
            "sg": cls.SERVER_GARBLER,
            "server_garbler": cls.SERVER_GARBLER,
            "server-garbler": cls.SERVER_GARBLER,
            "cg": cls.CLIENT_GARBLER,
            "client_garbler": cls.CLIENT_GARBLER,
            "client-garbler": cls.CLIENT_GARBLER,
        }
        if key not in aliases:
            raise InvalidCostInput(f"unknown protocol {value!r}; use sg or cg")
        return aliases[key]

    @property
    def short(self) -> str:
        return "sg" if self is Protocol.SERVER_GARBLER else "cg"


class InsufficientRows(CostModelError):
    """Calibration input does not cover the requested query."""


class InconsistentRows(CostModelError):
    """Measured rows cannot be fit within the residual tolerances."""


class UncalibratedTriple(CostModelError):
    """Table-mode lookup for a (protocol, model, dataset) with no row, or
    for a network other than the measured one."""


class UnknownOptimization(CostModelError):
    pass


@dataclass(frozen=True)
class MeasuredCosts:
    """One measured row: a (protocol, model, dataset) at a fixed bandwidth.

    Comm columns may be None, in which case the structural byte model
    fills them in during calibration.
    """

    protocol: Protocol
    model: str
    dataset: str
    offline_latency_s: float
    online_latency_s: float
    client_storage_bytes: int
    server_storage_bytes: int
    bandwidth_bytes_per_s: float
    offline_comm_bytes: int | None = None
    online_comm_bytes: int | None = None


@dataclass(frozen=True)
class OptimizationKnobs:
    """Multiplicative what-if factors applied to counts and unit rates.

    Factors below 1.0 model an optimization (fewer ReLUs, cheaper GC
    per ReLU, ...); 1.0 is identity. Composition is elementwise
    multiplication, so knob application commutes.
    """

    relu_factor: float = 1.0
    flop_factor: float = 1.0
    gc_per_relu_factor: float = 1.0
    he_per_flop_factor: float = 1.0
    name: str = "none"

    def __post_init__(self):
        for f in KNOB_FACTORS:
            value = getattr(self, f)
            if not (math.isfinite(value) and value > 0):
                raise InvalidCostInput(f"knob factors must be finite and positive, got {value}")

    @property
    def is_identity(self) -> bool:
        return all(getattr(self, f) == 1.0 for f in KNOB_FACTORS)

    @property
    def gc_total_reduction(self) -> float:
        """Factor by which total GC cost shrinks (count times unit cost)."""
        return 1.0 / (self.relu_factor * self.gc_per_relu_factor)

    @property
    def he_total_reduction(self) -> float:
        return 1.0 / (self.flop_factor * self.he_per_flop_factor)


# The knob factors' field names, in declaration order: every field but the name.
KNOB_FACTORS = tuple(f.name for f in fields(OptimizationKnobs) if f.name != "name")


@dataclass(frozen=True)
class PhaseCosts:
    """Per-inference cost prediction for one protocol on one network."""

    protocol: Protocol
    model: str
    dataset: str
    offline_latency_s: float
    online_latency_s: float
    offline_compute_s: float
    online_compute_s: float
    offline_he_s: float
    offline_comm_c2s_bytes: int
    offline_comm_s2c_bytes: int
    online_comm_c2s_bytes: int
    online_comm_s2c_bytes: int
    client_storage_delta_bytes: int
    server_storage_delta_bytes: int
    gc_storage_bytes: int
    bandwidth_bytes_per_s: float

    def __post_init__(self):
        for name in _COST_FIELDS:
            value = getattr(self, name)
            if not value >= 0:
                raise InvalidCostInput(f"cost {name}={value} is not non-negative")

    @property
    def offline_comm_bytes(self) -> int:
        return self.offline_comm_c2s_bytes + self.offline_comm_s2c_bytes

    @property
    def online_comm_bytes(self) -> int:
        return self.online_comm_c2s_bytes + self.online_comm_s2c_bytes


# The fields __post_init__ holds non-negative: all but the three labels and
# the bandwidth, which phase_costs holds finite and positive.
_COST_FIELDS = tuple(
    f.name
    for f in fields(PhaseCosts)
    if f.name not in ("protocol", "model", "dataset", "bandwidth_bytes_per_s")
)


@dataclass(frozen=True)
class CalibrationReport:
    max_latency_residual: float
    max_storage_residual: float
    row_residuals: tuple[tuple[str, float, float], ...]  # (row id, offline rel, online rel)
    he_share_anchors: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class CostModel:
    """Calibrated rates plus the measured table they were fit from.

    offline_rates and online_rates hold one rate per calibrated column
    (see formula.Columns); a component prediction is their dot product
    with the network's feature vectors. table holds the measured rows
    that table-mode queries replay.
    """

    gc_bytes_per_relu: float
    columns: Columns
    offline_rates: tuple[float, ...]
    online_rates: tuple[float, ...]
    calibrated_bandwidth: float
    table: dict[tuple[Protocol, str, str], MeasuredCosts]
    report: CalibrationReport | None = None

    def __post_init__(self):
        rates = (self.gc_bytes_per_relu, *self.offline_rates, *self.online_rates)
        if not all(r >= 0 for r in rates):
            raise InvalidCostInput("all rates must be non-negative")

    @property
    def calibrated_protocols(self) -> frozenset[Protocol]:
        return frozenset(self.columns.protocols)
