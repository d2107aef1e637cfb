"""Mapping optimization strength to expected deployment benefit.

An optimization helps a storage-bound deployment only if it shrinks
the per-request GC footprint enough to matter, and helps a
compute-bound one only via the HE term. The classifier buckets a knob
setting by its total GC and HE reductions.
"""

from __future__ import annotations

import enum

from .types import OptimizationKnobs


class Regime(str, enum.Enum):
    LOW = "low"
    MODERATE = "moderate"
    HIGH = "high"


def classify_regime(knobs: OptimizationKnobs) -> Regime:
    """Bucket an optimization by expected serving-capacity benefit: at
    least a 2x HE reduction, then a GC reduction of 8x for HIGH and 4x
    for MODERATE."""
    if knobs.he_total_reduction < 2.0:
        return Regime.LOW
    if knobs.gc_total_reduction >= 8.0:
        return Regime.HIGH
    if knobs.gc_total_reduction >= 4.0:
        return Regime.MODERATE
    return Regime.LOW
