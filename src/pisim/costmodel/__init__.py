"""Calibrated latency, communication, and storage model.

The fit itself is `pisim.costmodel.calibrate.calibrate`; the package
attribute `calibrate` is that submodule, imported on first use (PEP 562),
since it needs numpy and the package does not. `load_shipped_model`
reads the shipped fit as data (see `shipped`) and fits only a table
whose text differs from the one that fit holds.
"""

import importlib

from .comm import (
    BASE_OT_BYTES_PER_DIRECTION,
    CG_EVALUATOR_STATE_BYTES_PER_RELU,
    GC_TRANSFER_BYTES_PER_RELU,
    HE_CT_BYTES_PER_ELEM,
    KEY_BYTES,
    SHARE_BYTES_PER_ELEM,
    CommInputs,
    offline_comm,
    online_comm,
    storage_deltas,
)
from .query import phase_costs
from .regimes import Regime, classify_regime
from .shipped import load_shipped_model
from .tables import (
    TableFormatError,
    get_optimization,
    load_optimizations,
    load_shipped_costs,
    read_measured_costs,
    write_measured_costs,
)
from .types import (
    CostModel,
    CostModelError,
    InconsistentRows,
    InvalidCostInput,
    InsufficientRows,
    MeasuredCosts,
    OptimizationKnobs,
    PhaseCosts,
    Protocol,
    UncalibratedTriple,
    UnknownOptimization,
)

__all__ = [
    "BASE_OT_BYTES_PER_DIRECTION",
    "CG_EVALUATOR_STATE_BYTES_PER_RELU",
    "GC_TRANSFER_BYTES_PER_RELU",
    "HE_CT_BYTES_PER_ELEM",
    "KEY_BYTES",
    "SHARE_BYTES_PER_ELEM",
    "CommInputs",
    "CostModel",
    "CostModelError",
    "InconsistentRows",
    "InvalidCostInput",
    "InsufficientRows",
    "MeasuredCosts",
    "OptimizationKnobs",
    "PhaseCosts",
    "Protocol",
    "Regime",
    "TableFormatError",
    "UncalibratedTriple",
    "UnknownOptimization",
    "classify_regime",
    "get_optimization",
    "load_optimizations",
    "load_shipped_costs",
    "load_shipped_model",
    "offline_comm",
    "online_comm",
    "phase_costs",
    "read_measured_costs",
    "storage_deltas",
    "write_measured_costs",
]


def __getattr__(name: str):
    if name == "calibrate":
        return importlib.import_module(".calibrate", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
