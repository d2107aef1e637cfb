"""Calibrated latency, communication, and storage model.

The fit itself is `pisim.costmodel.calibrate.calibrate`; the package
attribute `calibrate` is that submodule.
"""

from .calibrate import load_shipped_model
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
