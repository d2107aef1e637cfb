"""The component cost formula, shared by the fit, its report and every query.

  offline ~ he_conv[area]*conv_flops + he_fc[area]*fc_flops + per_unit*n_units
            + garble[protocol]*relus + fixed
  online  ~ gc_eval*relus + conv_rate*conv_flops + fc_rate*fc_flops + fixed
            + ot*relus (client-garbler only)

Each line is the dot product of a feature vector, built from one network by
`Columns.features`, with a rate vector over the calibrated columns. HE rates
have one column per calibrated input area (height*width), because ciphertext
packing efficiency depends on resolution; a network at another area uses the
column of the area nearest in log scale. The HE columns come first, so the
HE part of offline compute is a prefix of the same sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..netarch import NetworkArch, linear_profile
from .comm import CommInputs
from .types import CostModel, OptimizationKnobs, Protocol

IDENTITY = OptimizationKnobs()


@dataclass(frozen=True)
class Workload:
    """The counts the formula reads from one network, before knobs."""

    area: int
    conv_flops: int
    fc_flops: int
    n_units: int
    sizes: CommInputs

    @classmethod
    def of(cls, arch: NetworkArch) -> "Workload":
        profile = linear_profile(arch)
        return cls(
            area=arch.dataset.height * arch.dataset.width,
            conv_flops=profile.conv_flops,
            fc_flops=profile.fc_flops,
            n_units=profile.n_units,
            sizes=CommInputs.from_arch(arch),
        )


def _nearest(areas: tuple[int, ...], area: int) -> int:
    """Index of area in areas, else of the calibrated area nearest in log scale."""
    if area in areas:
        return areas.index(area)
    return min(range(len(areas)), key=lambda i: abs(math.log(area / areas[i])))


@dataclass(frozen=True)
class Columns:
    """The calibrated columns of the rate vectors.

    offline: HE conv per area, HE FC per area, per linear unit, garbling per
    protocol, fixed. online: GC evaluation, conv, FC, fixed, and OT when
    client-garbler rows were calibrated.
    """

    conv_areas: tuple[int, ...]
    fc_areas: tuple[int, ...]
    protocols: tuple[Protocol, ...]

    @property
    def he_flops(self) -> slice:
        """The FLOP-driven HE columns, which the fit's HE-share prior covers."""
        return slice(0, len(self.conv_areas) + len(self.fc_areas))

    @property
    def he(self) -> slice:
        """All HE columns: the FLOP-driven ones and the per-unit cost."""
        return slice(0, self.he_flops.stop + 1)

    def features(
        self, protocol: Protocol, w: Workload, knobs: OptimizationKnobs = IDENTITY
    ) -> tuple[list[float], list[float]]:
        """Offline and online feature vectors of one network.

        Knobs scale the features: FLOP and ReLU counts by their count
        factors, HE FLOPs and garbled or evaluated ReLUs by their per-unit
        cost factors.
        """
        relus = w.sizes.scaled(knobs.relu_factor).relus
        conv = w.conv_flops * knobs.flop_factor
        fc = w.fc_flops * knobs.flop_factor
        he, gc = knobs.he_per_flop_factor, knobs.gc_per_relu_factor
        n_conv, n_fc = len(self.conv_areas), len(self.fc_areas)
        off = [0.0] * (n_conv + n_fc + 1 + len(self.protocols) + 1)
        if self.conv_areas:
            off[_nearest(self.conv_areas, w.area)] = conv * he
        if self.fc_areas:
            off[n_conv + _nearest(self.fc_areas, w.area)] = fc * he
        off[self.he.stop - 1] = w.n_units
        off[self.he.stop + self.protocols.index(protocol)] = relus * gc
        off[-1] = 1.0
        on = [relus * gc, conv, fc, 1.0]
        if Protocol.CLIENT_GARBLER in self.protocols:
            on.append(relus if protocol is Protocol.CLIENT_GARBLER else 0.0)
        return off, on


def compute_seconds(
    cm: CostModel, protocol: Protocol, w: Workload, knobs: OptimizationKnobs = IDENTITY
) -> tuple[float, float, float]:
    """Offline compute, online compute and the offline HE part, in seconds."""
    off, on = cm.columns.features(protocol, w, knobs)
    off_terms = [r * f for r, f in zip(cm.offline_rates, off)]
    he = sum(off_terms[cm.columns.he])
    return sum(off_terms), sum(r * f for r, f in zip(cm.online_rates, on)), he
