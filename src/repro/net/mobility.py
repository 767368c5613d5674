"""Mobility models for the mobile nodes.

The system model (Section 2) lets nodes move arbitrarily subject to a
maximum velocity ``vmax`` (distance units per round).  Each node owns one
mobility-model instance; the simulator advances all models by one round at
the start of every slot and reads back positions.

All models are deterministic given their constructor arguments (random
models take an explicit seed), so entire executions replay exactly.
"""

from __future__ import annotations

import math
import random
from abc import ABC, abstractmethod
from typing import Sequence

from ..geometry import Point
from ..types import Round


class MobilityModel(ABC):
    """Produces one position per round for a single node.

    :meth:`position_at` is the one seam between motion and everything
    else: the simulator calls it once per mover per real round, and the
    benchmark's traced pass wraps exactly that call
    (``net.mobility.calls`` / ``net.mobility.position_s``).  So it may
    cost O(1) arithmetic and at most one new :class:`Point` per call
    (amortised, for models that generate a walk lazily); anything that
    depends only on constructor arguments — edge directions, lengths,
    a finite walk — belongs in ``__init__``.
    """

    @abstractmethod
    def position_at(self, r: Round) -> Point:
        """Position of the node at the start of round ``r``."""

    def max_speed(self) -> float:
        """Upper bound on per-round displacement (``vmax`` contribution).

        Load-bearing: regional managers keep a sitting leader's advice
        for as long as this bound keeps it in region
        (:mod:`repro.contention.regional`), so under-reporting it breaks
        that horizon.  The default (unbounded) is always safe.
        """
        return float("inf")

    def moved_in(self, r: Round) -> bool:
        """Dirty-set protocol: may round ``r``'s position differ from
        round ``r - 1``'s?

        Returning ``False`` is a hard promise of *object identity*:
        ``position_at(r) is position_at(r - 1)``.  The batched round
        engine then reuses the previous round's position entry without
        consulting :meth:`position_at` at all, and — because the very
        same :class:`~repro.geometry.Point` object lands in the round
        record — the skip is invisible even to trace pickles.  Models
        that build a fresh (if equal) ``Point`` per call must keep the
        conservative default ``True``.
        """
        return True


class StaticMobility(MobilityModel):
    """A node that never moves (the Section 3 setting)."""

    def __init__(self, position: Point) -> None:
        self._position = position

    def position_at(self, r: Round) -> Point:
        return self._position

    def max_speed(self) -> float:
        return 0.0

    def moved_in(self, r: Round) -> bool:
        return False


class LinearMobility(MobilityModel):
    """Constant-velocity straight-line motion.

    Used to model nodes drifting out of a virtual node's region at bounded
    speed, the scenario behind the "temporary leader" analysis of §4.2.
    """

    def __init__(self, start: Point, velocity: Point) -> None:
        self._start = start
        self._velocity = velocity

    def position_at(self, r: Round) -> Point:
        return self._start + self._velocity.scaled(float(r))

    def max_speed(self) -> float:
        return self._velocity.norm()


class WaypointMobility(MobilityModel):
    """Piecewise motion through an explicit list of waypoints.

    The node moves toward each waypoint in turn at ``speed`` per round and
    parks at the final waypoint — or wherever a step stops making
    progress, so a ``speed`` of 0 stores one position, not ``horizon``
    equal ones.  Positions are computed eagerly once and cached, keeping
    ``position_at`` pure.
    """

    def __init__(self, start: Point, waypoints: Sequence[Point], speed: float,
                 horizon: int = 100_000) -> None:
        if speed < 0:
            raise ValueError("speed must be non-negative")
        self._speed = speed
        self._positions: list[Point] = [start]
        waypoints = list(waypoints)
        reached = 0
        pos = start
        while reached < len(waypoints) and len(self._positions) < horizon:
            target = waypoints[reached]
            ahead = pos.moved_toward(target, speed)
            if ahead == target:
                reached += 1
            elif ahead == pos:
                # No progress (``speed`` is 0, or smaller than the float
                # grid here), and the same inputs give the same step
                # forever: the node parks where it is.
                break
            pos = ahead
            self._positions.append(pos)

    def position_at(self, r: Round) -> Point:
        if r < len(self._positions):
            return self._positions[r]
        return self._positions[-1]

    def max_speed(self) -> float:
        return self._speed

    def moved_in(self, r: Round) -> bool:
        # Distinct (eagerly cached) Point objects while the walk lasts;
        # once parked, position_at returns the final list entry — the
        # identical object — every round.
        return r < 1 or r < len(self._positions)


class RandomWaypointMobility(MobilityModel):
    """The classic random-waypoint model inside a rectangular arena.

    The node repeatedly picks a uniform random destination in the arena
    and walks toward it at ``speed`` per round.  Deterministic given the
    seed; positions are generated lazily and memoised.
    """

    def __init__(self, start: Point, *, arena: tuple[float, float, float, float],
                 speed: float, seed: int) -> None:
        x_lo, y_lo, x_hi, y_hi = arena
        if x_hi <= x_lo or y_hi <= y_lo:
            raise ValueError("arena must have positive width and height")
        if speed < 0:
            raise ValueError("speed must be non-negative")
        self._arena = arena
        self._speed = speed
        self._rng = random.Random(seed)
        self._positions: list[Point] = [start]
        self._target = self._pick_target()

    def _pick_target(self) -> Point:
        x_lo, y_lo, x_hi, y_hi = self._arena
        return Point(self._rng.uniform(x_lo, x_hi), self._rng.uniform(y_lo, y_hi))

    def position_at(self, r: Round) -> Point:
        while len(self._positions) <= r:
            pos = self._positions[-1].moved_toward(self._target, self._speed)
            if pos == self._target:
                self._target = self._pick_target()
            self._positions.append(pos)
        return self._positions[r]

    def max_speed(self) -> float:
        return self._speed


class OrbitMobility(MobilityModel):
    """Motion around a fixed anchor along a square orbit of given radius.

    The node walks the perimeter of an axis-aligned square centred on
    ``anchor`` at ``speed`` per round, wrapping forever.  Handy for keeping
    a node *near* a virtual-node location while still exercising position
    updates every round.
    """

    def __init__(self, anchor: Point, radius: float, speed: float) -> None:
        if radius <= 0:
            raise ValueError("radius must be positive")
        if speed < 0:
            raise ValueError("speed must be non-negative")
        corners = [
            anchor + Point(radius, radius),
            anchor + Point(-radius, radius),
            anchor + Point(-radius, -radius),
            anchor + Point(radius, -radius),
        ]
        self._side = 2.0 * radius
        self._perimeter = 4.0 * self._side
        self._speed = speed
        #: Per edge, the constants of ``start.moved_toward(end, along)``
        #: — the expressions of :meth:`Point.moved_toward`, evaluated
        #: once: ``(start.x, start.y, end, gap, ux, uy)``.
        self._edges = []
        for start, end in zip(corners, corners[1:] + corners[:1]):
            dx = end.x - start.x
            dy = end.y - start.y
            gap = math.hypot(dx, dy)
            # A radius below the anchor's float grid collapses the
            # square; the zero vector's unit is the zero vector.
            ux, uy = (dx / gap, dy / gap) if gap else (0.0, 0.0)
            self._edges.append((start.x, start.y, end, gap, ux, uy))

    def position_at(self, r: Round) -> Point:
        travelled = (self._speed * r) % self._perimeter if self._speed else 0.0
        edge = int(travelled // self._side) % 4
        along = travelled - edge * self._side
        sx, sy, end, gap, ux, uy = self._edges[edge]
        if gap <= along:
            return end
        return Point(sx + ux * along, sy + uy * along)

    def max_speed(self) -> float:
        return self._speed
