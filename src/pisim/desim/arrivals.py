"""Arrival-process generation."""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np


def draw_size(rate: float, horizon_s: float) -> int:
    """Gaps drawn per segment: enough that one segment almost always
    reaches the horizon."""
    expected = rate * horizon_s
    return max(16, int(expected + 4 * math.sqrt(expected) + 16))


def poisson_arrival_times(
    rng: np.random.Generator, rate: float, horizon_s: float, states: Sequence[dict]
) -> np.ndarray:
    """Arrival instants of a Poisson process on [0, horizon).

    Exponential inter-arrival gaps, cumulative-summed and truncated. A run
    draws its gaps in segments of draw_size(rate, horizon_s); a segment
    after the first is cumsummed on its own and offset by the run's last
    time so far.

    One run per bit-generator state, each drawn from rng restored to it:
    a (runs, width) matrix, row r holding run r's times followed by inf.
    The first segments are one matrix, scaled and cumsummed in place; a
    row that needs more is drawn again from its state, so its later
    segments follow its first as in a run alone.
    """
    draw = draw_size(rate, horizon_s) if rate > 0 else 0
    times = np.empty((len(states), draw))
    if rate > 0:
        scale = 1.0 / rate
        for row, state in zip(times, states):
            rng.bit_generator.state = state
            rng.standard_exponential(out=row)
        times *= scale
        np.cumsum(times, axis=1, out=times)
        longer = {}
        for r in np.flatnonzero(times[:, -1] < horizon_s).tolist():
            rng.bit_generator.state = states[r]
            rng.standard_exponential(draw)  # the row's first segment again
            row = times[r]
            while row[-1] < horizon_s:
                more = np.cumsum(rng.exponential(scale, size=draw)) + row[-1]
                row = np.concatenate([row, more])
            longer[r] = row
        if longer:
            wide = np.full((len(states), max(row.size for row in longer.values())), math.inf)
            wide[:, :draw] = times
            for r, row in longer.items():
                wide[r, : row.size] = row
            times = wide
    times[times >= horizon_s] = math.inf
    return times
