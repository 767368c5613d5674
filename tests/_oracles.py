"""Reference definitions for code that has no reference twin in ``src/``.

``Point``, the mobility models and ``VIDevice`` are shared by both twins
of every :class:`~repro.switches.Switches` axis, so no differential
suite can see them drift.  The definitions they replaced live here,
verbatim, and the property tests compare against them bit for bit.
"""

from __future__ import annotations

import struct

from repro.geometry import Point


def bits(point: Point) -> bytes:
    """A point's coordinates as IEEE doubles: ``-0.0`` and a last-bit
    difference both count, which ``==`` on floats would forgive."""
    return struct.pack("<dd", point.x, point.y)


def composed_moved_toward(self: Point, target: Point, step: float) -> Point:
    """:meth:`Point.moved_toward` as the vector expression that defines
    it (four ``Point`` constructions, three thrown away)."""
    gap = self.distance_to(target)
    if gap <= step:
        return target
    return self + (target - self).unit().scaled(step)


def orbit_position(anchor: Point, radius: float, speed: float,
                   r: int) -> tuple[Point, bool]:
    """:meth:`OrbitMobility.position_at` as a walk along the current
    edge with :func:`composed_moved_toward`; also says whether the walk
    returned the edge's far corner itself."""
    corners = [
        anchor + Point(radius, radius),
        anchor + Point(-radius, radius),
        anchor + Point(-radius, -radius),
        anchor + Point(radius, -radius),
    ]
    side = 2.0 * radius
    perimeter = 4.0 * side
    travelled = (speed * r) % perimeter if speed else 0.0
    edge = int(travelled // side) % 4
    along = travelled - edge * side
    end = corners[(edge + 1) % 4]
    position = composed_moved_toward(corners[edge], end, along)
    return position, position is end


def scan_nearest_in_region(sites, here: Point, region_radius: float):
    """The all-sites scan behind ``VIDevice._nearest_site_in_region``
    before the per-world index: one distance test per site."""
    best = None
    best_dist = None
    for site in sites:
        dist = site.location.distance_to(here)
        if dist <= region_radius and (best_dist is None or
                                      (dist, site.vn_id) < (best_dist, best.vn_id)):
            best, best_dist = site, dist
    return best
