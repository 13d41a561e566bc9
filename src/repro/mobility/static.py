"""Immobile nodes — controlled topologies for MAC-focused experiments."""

from __future__ import annotations

import math

from repro.mobility.base import Leg, MobilityModel, Position


class StaticMobility(MobilityModel):
    """A node pinned at a fixed position."""

    __slots__ = ("_pos",)

    def __init__(self, position: Position) -> None:
        self._pos = (float(position[0]), float(position[1]))

    @property
    def position(self) -> Position:
        """The fixed position."""
        return self._pos

    def position_at(self, t: float) -> Position:
        return self._pos

    def leg(self, t: float) -> Leg:
        return (*self._pos, 0.0, 0.0, 0.0, math.inf, math.inf)

    def poll(self, t: float) -> tuple[Position, int]:
        # Allocation-free fast path: same tuple object, epoch pinned at 0.
        return self._pos, 0

    def max_speed_mps(self) -> float:
        return 0.0
