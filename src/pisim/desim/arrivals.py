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


class Gaps:
    """Standard-exponential gaps, row r as np.random.default_rng(seeds[r])
    draws them. The gaps read so far are kept as one (seeds, width)
    matrix, and a read past them continues each row's generator, so no
    gap is drawn twice."""

    def __init__(self, seeds: Sequence[int]):
        self._rngs = [np.random.Generator(np.random.PCG64(seed)) for seed in seeds]
        self.kept = np.empty((len(self._rngs), 0))

    def first(self, n: int) -> np.ndarray:
        """Each row's first n gaps, (seeds, n)."""
        width = self.kept.shape[1]
        if n > width:
            wide = np.empty((len(self._rngs), n))
            wide[:, :width] = self.kept
            for row, rng in zip(wide[:, width:], self._rngs):
                rng.standard_exponential(out=row)
            self.kept = wide
        return self.kept[:, :n]


def poisson_arrival_times(rate: float, horizon_s: float, gaps: Gaps) -> np.ndarray:
    """Arrival instants of a Poisson process on [0, horizon).

    Exponential inter-arrival gaps, cumulative-summed and truncated. A run
    reads its gaps in segments of draw_size(rate, horizon_s); a segment
    after the first is cumsummed on its own and offset by the run's last
    time so far.

    One run per row of gaps: a (runs, width) matrix, row r holding run r's
    times followed by inf. Each segment is scaled and cumsummed as one
    matrix, read while any run falls short of the horizon (a run past it
    gains only times past it). exponential(scale) draws scale times a
    standard exponential, and split draws equal one draw, so every time
    is bitwise that of the seed's np.random.default_rng drawing the run
    alone.
    """
    if rate <= 0:
        return gaps.first(0).copy()
    draw, scale = draw_size(rate, horizon_s), 1.0 / rate
    times = np.multiply(gaps.first(draw), scale)
    np.cumsum(times, axis=1, out=times)
    while np.any(times[:, -1] < horizon_s):
        width = times.shape[1]
        more = np.multiply(gaps.first(width + draw)[:, width:], scale)
        np.cumsum(more, axis=1, out=more)
        more += times[:, -1:]
        times = np.concatenate([times, more], axis=1)
    times[times >= horizon_s] = math.inf
    return times
