"""Mobility model interface."""

from __future__ import annotations

import math

Position = tuple[float, float]

#: One leg of a trajectory: ``(x0, y0, dx, dy, t0, span, t_end)``.  At any
#: ``t`` in ``[t0, t_end)`` the position is ``(x0 + dx * f, y0 + dy * f)``
#: with ``f = (t - t0) / span`` — evaluated with exactly these float
#: operations it equals :meth:`MobilityModel.position_at` bit for bit.
Leg = tuple[float, float, float, float, float, float, float]


class MobilityModel:
    """Interface: a node's position as a function of simulation time.

    ``position_at`` may assume monotonically non-decreasing query times (the
    simulator clock only moves forward), which lets implementations advance
    internal state lazily.

    Legs
    ----
    :meth:`leg` describes the motion in closed form until the leg's end
    time, so a consumer can copy it into an array row and evaluate many
    nodes' positions in one vectorised expression (the channel's fan-out
    does), re-reading the model only once the row has expired.

    Movement epochs
    ---------------
    Models additionally expose a monotonically non-decreasing **epoch**
    counter that bumps whenever a position sample returns a *different*
    position than the previous sample.  Immobile models never bump, so a
    consumer that cached a derived quantity can validate its cache with one
    integer comparison instead of resampling and recomputing.  The epoch
    only advances when the position is actually *sampled* — callers that
    need the epoch at the current time must call :meth:`poll` (which samples
    and reports atomically) rather than reading :attr:`epoch` alone.
    """

    def position_at(self, t: float) -> Position:
        """The node's (x, y) position [m] at simulation time ``t``."""
        raise NotImplementedError

    def leg(self, t: float) -> Leg:
        """The leg current at ``t`` (see :data:`Leg`), valid until its
        ``t_end``.

        The base implementation knows nothing of the future: it samples
        ``position_at(t)`` into a leg that is valid at ``t`` only, or
        forever when the model is immobile.
        """
        x, y = self.position_at(t)
        return (x, y, 0.0, 0.0, t, 1.0, math.inf if self.max_speed_mps() == 0 else t)

    @property
    def epoch(self) -> int:
        """Movement epoch as of the most recent position sample.

        The base implementation is pinned at 0 — correct for any model whose
        ``position_at`` is constant.  Mobile models override it.
        """
        return 0

    def poll(self, t: float) -> tuple[Position, int]:
        """Sample the position at ``t`` and return ``(position, epoch)``.

        Equal epochs across two polls guarantee the returned positions were
        equal, so any pure function of the position may be reused.
        """
        pos = self.position_at(t)
        return pos, self.epoch

    def max_speed_mps(self) -> float:
        """Upper bound on the node's speed [m/s] (0 for immobile models).

        Consumers that keep spatial data structures approximately fresh
        (e.g. the channel's grid index) use this to bound how far a node can
        drift between refreshes.  Models with unbounded speed should return
        ``math.inf``; the base implementation does, as the safe default.
        """
        return float("inf")
