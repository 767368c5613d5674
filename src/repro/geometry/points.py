"""Plane geometry primitives.

The paper's model places nodes in the Euclidean plane with a bounded
maximum velocity ``vmax`` and two radii: the broadcast radius ``R1`` and
the interference radius ``R2 >= R1`` (quasi-unit-disk model).  Everything
downstream only needs points, distances and straight-line motion, which we
keep dependency-free and exact enough for deterministic simulation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator


@dataclass(frozen=True, slots=True, init=False)
class Point:
    """An immutable point (or displacement vector) in the plane.

    ``__init__`` fills the slots through their member descriptors (the
    generated one makes two ``object.__setattr__`` calls); all else is
    the frozen dataclass's own, pickles included."""

    x: float
    y: float

    def __init__(self, x: float, y: float) -> None:
        _set_x(self, x)
        _set_y(self, y)

    def distance_to(self, other: "Point") -> float:
        """Euclidean distance between two points."""
        return math.hypot(self.x - other.x, self.y - other.y)

    def within(self, other: "Point", radius: float) -> bool:
        """True when ``other`` lies within ``radius`` of this point.

        Uses squared distances so that membership tests are exact for the
        integer/rational coordinates the test-suite favours.
        """
        dx = self.x - other.x
        dy = self.y - other.y
        return dx * dx + dy * dy <= radius * radius

    def __add__(self, other: "Point") -> "Point":
        return Point(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Point") -> "Point":
        return Point(self.x - other.x, self.y - other.y)

    def scaled(self, factor: float) -> "Point":
        """This point treated as a vector, scaled by ``factor``."""
        return Point(self.x * factor, self.y * factor)

    def norm(self) -> float:
        """Euclidean norm of this point treated as a vector."""
        return math.hypot(self.x, self.y)

    def unit(self) -> "Point":
        """Unit vector in this direction (zero vector maps to itself)."""
        n = self.norm()
        if n == 0.0:
            return Point(0.0, 0.0)
        return Point(self.x / n, self.y / n)

    def moved_toward(self, target: "Point", step: float) -> "Point":
        """The point reached by moving ``step`` toward ``target``.

        Never overshoots: if ``target`` is closer than ``step`` the result
        is exactly ``target`` — the argument itself, not a copy.  This is
        the primitive used by the mobility models to honour the ``vmax``
        bound of the system model.

        Defined as the composed vector expression::

            if self.distance_to(target) <= step:
                return target
            return self + (target - self).unit().scaled(step)

        and computed as the same IEEE operations in the same order on
        plain floats — ``hypot`` is symmetric under negating both
        arguments, so the gap doubles as the direction's norm — building
        one ``Point`` instead of four.  The composed form lives on in
        ``tests/_oracles.py``, and
        ``test_moved_toward_matches_composed_definition``
        (``tests/geometry/test_points.py``) compares the two bit for bit.
        """
        sx, sy = self.x, self.y
        dx = target.x - sx
        dy = target.y - sy
        gap = math.hypot(dx, dy)
        if gap <= step:
            return target
        if gap == 0.0:
            # Only reachable with a negative ``step``: the zero vector's
            # unit is the zero vector (see :meth:`unit`).
            return Point(sx + 0.0 * step, sy + 0.0 * step)
        return Point(sx + dx / gap * step, sy + dy / gap * step)

    def as_tuple(self) -> tuple[float, float]:
        return (self.x, self.y)


_set_x = Point.x.__set__
_set_y = Point.y.__set__

ORIGIN = Point(0.0, 0.0)


def centroid(points: Iterable[Point]) -> Point:
    """Arithmetic mean of a non-empty collection of points."""
    pts = list(points)
    if not pts:
        raise ValueError("centroid of an empty point collection is undefined")
    sx = sum(p.x for p in pts)
    sy = sum(p.y for p in pts)
    return Point(sx / len(pts), sy / len(pts))


def pairwise_distances(points: Iterable[Point]) -> Iterator[float]:
    """Yield the distance of every unordered pair of distinct indices."""
    pts = list(points)
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            yield pts[i].distance_to(pts[j])


def max_pairwise_distance(points: Iterable[Point]) -> float:
    """Diameter of a point set (0.0 for fewer than two points)."""
    return max(pairwise_distances(points), default=0.0)
