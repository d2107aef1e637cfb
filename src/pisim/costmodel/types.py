"""Shared cost-model types and errors."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .formula import Columns


class CostModelError(Exception):
    """Root of the cost model's errors; the CLI maps each to exit 2."""


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
    """Table-direct lookup for a (protocol, model, dataset) with no row."""


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
        for f in (
            self.relu_factor,
            self.flop_factor,
            self.gc_per_relu_factor,
            self.he_per_flop_factor,
        ):
            if not (math.isfinite(f) and f > 0):
                raise InvalidCostInput(f"knob factors must be finite and positive, got {f}")

    @property
    def is_identity(self) -> bool:
        return (
            self.relu_factor == 1.0
            and self.flop_factor == 1.0
            and self.gc_per_relu_factor == 1.0
            and self.he_per_flop_factor == 1.0
        )

    def combine(self, other: "OptimizationKnobs") -> "OptimizationKnobs":
        return OptimizationKnobs(
            relu_factor=self.relu_factor * other.relu_factor,
            flop_factor=self.flop_factor * other.flop_factor,
            gc_per_relu_factor=self.gc_per_relu_factor * other.gc_per_relu_factor,
            he_per_flop_factor=self.he_per_flop_factor * other.he_per_flop_factor,
            name=f"{self.name}+{other.name}",
        )

    @property
    def gc_total_reduction(self) -> float:
        """Factor by which total GC cost shrinks (count times unit cost)."""
        return 1.0 / (self.relu_factor * self.gc_per_relu_factor)

    @property
    def he_total_reduction(self) -> float:
        return 1.0 / (self.flop_factor * self.he_per_flop_factor)


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
        for name in (
            "offline_latency_s",
            "online_latency_s",
            "offline_compute_s",
            "online_compute_s",
            "offline_he_s",
            "offline_comm_c2s_bytes",
            "offline_comm_s2c_bytes",
            "online_comm_c2s_bytes",
            "online_comm_s2c_bytes",
            "client_storage_delta_bytes",
            "server_storage_delta_bytes",
            "gc_storage_bytes",
        ):
            value = getattr(self, name)
            if not value >= 0:
                raise InvalidCostInput(f"cost {name}={value} is not non-negative")

    @property
    def offline_comm_bytes(self) -> int:
        return self.offline_comm_c2s_bytes + self.offline_comm_s2c_bytes

    @property
    def online_comm_bytes(self) -> int:
        return self.online_comm_c2s_bytes + self.online_comm_s2c_bytes

    @property
    def total_latency_s(self) -> float:
        return self.offline_latency_s + self.online_latency_s


@dataclass(frozen=True)
class CalibrationReport:
    max_latency_residual: float
    max_storage_residual: float
    row_residuals: tuple[tuple[str, float, float], ...]  # (row id, offline rel, online rel)
    he_share_anchors: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class CostModel:
    """Calibrated rates plus the measured table they were fit from.

    mode picks the phase_costs path: "table" replays measured rows (exact
    at the calibrated bandwidth), "component" prices any architecture with
    the fitted rates. offline_rates and online_rates hold one rate per
    calibrated column (see formula.Columns); a prediction is their dot
    product with the network's feature vectors.
    """

    mode: str
    gc_bytes_per_relu: float
    columns: Columns
    offline_rates: tuple[float, ...]
    online_rates: tuple[float, ...]
    calibrated_bandwidth: float
    table: dict[tuple[Protocol, str, str], MeasuredCosts]
    report: CalibrationReport | None = None

    def __post_init__(self):
        if self.mode not in ("table", "component"):
            raise InvalidCostInput(f"mode must be 'table' or 'component', got {self.mode!r}")
        rates = (self.gc_bytes_per_relu, *self.offline_rates, *self.online_rates)
        if not all(r >= 0 for r in rates):
            raise InvalidCostInput("all rates must be non-negative")

    @property
    def calibrated_protocols(self) -> frozenset[Protocol]:
        return frozenset(self.columns.protocols)
