"""Arrival-process generation."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np


def draw_size(rate: float, horizon_s: float) -> int:
    """Gaps drawn per segment: enough that one segment almost always
    reaches the horizon."""
    expected = rate * horizon_s
    return max(16, int(expected + 4 * math.sqrt(expected) + 16))


class GapRoom:
    """How many more gaps the streams that share it may keep."""

    def __init__(self, gaps: int):
        self.gaps = gaps


@dataclass
class GapCache:
    """Gap streams by seed, whose kept gaps together stay within room.

    A stream holds the room, not the cache, so no reference cycle keeps
    the streams and their gaps alive once the cache is dropped.
    """

    room: GapRoom
    streams: dict[int, GapStream] = field(default_factory=dict)


class GapStream:
    """One seed's standard-exponential gaps, in the order
    np.random.default_rng(seed) draws them, read by position.

    The stream draws from its own generator. Gaps read once are kept
    while the room allows, and a read past them continues the generator,
    so no gap is drawn twice. Once a read does not fit the room, the
    stream keeps nothing more: the generator's state where the kept gaps
    end is saved, and a later read that starts before the generator's
    position draws again from there.
    """

    def __init__(self, bit_generator: np.random.BitGenerator, room: GapRoom):
        self.kept = np.empty(0)
        self._rng = np.random.Generator(bit_generator)
        self._pos = 0  # the stream position the generator draws next
        self._end: dict | None = None  # the state after the kept gaps, once drawn past them
        self._room = room

    def read(self, lo: int, hi: int) -> np.ndarray:
        """Gaps lo to hi of the stream."""
        kept, rng = self.kept, self._rng
        if hi <= kept.size:
            return kept[lo:hi]
        if self._pos == kept.size and hi - kept.size <= self._room.gaps:
            self._room.gaps -= hi - kept.size
            self.kept = kept = np.concatenate([kept, rng.standard_exponential(hi - kept.size)])
            self._pos = hi
            return kept[lo:hi]
        start = max(lo, kept.size)
        if self._end is None:
            self._end = rng.bit_generator.state
        if self._pos > start:
            rng.bit_generator.state = self._end
            self._pos = kept.size
        rng.standard_exponential(start - self._pos)  # skipped, not kept
        gaps = rng.standard_exponential(hi - start)
        self._pos = hi
        return np.concatenate([kept[lo:], gaps])


def poisson_arrival_times(
    rate: float, horizon_s: float, streams: Sequence[GapStream]
) -> np.ndarray:
    """Arrival instants of a Poisson process on [0, horizon).

    Exponential inter-arrival gaps, cumulative-summed and truncated. A run
    reads its gaps in segments of draw_size(rate, horizon_s); a segment
    after the first is cumsummed on its own and offset by the run's last
    time so far.

    One run per gap stream: a (runs, width) matrix, row r holding run r's
    times followed by inf. The first segments are one matrix, scaled and
    cumsummed in place; a row that needs more reads them from its stream
    after the first. exponential(scale) draws scale times a standard
    exponential, and split draws equal one draw, so every time is bitwise
    that of the seed's np.random.default_rng drawing the run alone.
    """
    draw = draw_size(rate, horizon_s) if rate > 0 else 0
    times = np.empty((len(streams), draw))
    if rate > 0:
        scale = 1.0 / rate
        for row, stream in zip(times, streams):
            np.multiply(stream.read(0, draw), scale, out=row)
        np.cumsum(times, axis=1, out=times)
        longer = {}
        for r in np.flatnonzero(times[:, -1] < horizon_s).tolist():
            row = times[r]
            while row[-1] < horizon_s:
                more = np.cumsum(streams[r].read(row.size, row.size + draw) * scale) + row[-1]
                row = np.concatenate([row, more])
            longer[r] = row
        if longer:
            wide = np.full((len(streams), max(row.size for row in longer.values())), math.inf)
            wide[:, :draw] = times
            for r, row in longer.items():
                wide[r, : row.size] = row
            times = wide
    times[times >= horizon_s] = math.inf
    return times
