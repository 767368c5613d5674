"""Reference definitions for code that has no reference twin in ``src/``.

``Point``, the mobility models, ``VIDevice`` and ``wire_size`` are
shared by both twins of every :class:`~repro.switches.Switches` axis, so
no differential suite can see them drift.  The definitions they replaced live here,
verbatim, and the property tests compare against them bit for bit.
"""

from __future__ import annotations

import struct
from dataclasses import fields, is_dataclass
from typing import Any

from repro.geometry import Point
from repro.net.messages import CONTAINER_OVERHEAD, FLOAT_SIZE, INT_SIZE, NONE_SIZE


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


#: The oracle's own dataclass field table (see :func:`chained_wire_size`).
_FIELD_NAMES: dict[type, tuple[str, ...]] = {}


def chained_wire_size(payload: Any) -> int:
    """:func:`repro.net.messages.wire_size` as one ``isinstance`` chain,
    before the exact-type lookups (a dataclass's field names tabled on
    first sight)."""
    names = _FIELD_NAMES.get(type(payload))
    if names is not None:
        # Only a type that fell through every branch below is ever
        # tabled, and those branches test the type alone.
        size = CONTAINER_OVERHEAD
        for name in names:
            size += chained_wire_size(getattr(payload, name))
        return size
    if payload is None:
        return NONE_SIZE
    if isinstance(payload, bool):
        return 1
    if isinstance(payload, int):
        return INT_SIZE
    if isinstance(payload, float):
        return FLOAT_SIZE
    if isinstance(payload, (str, bytes)):
        return CONTAINER_OVERHEAD + len(payload)
    if isinstance(payload, (tuple, list, set, frozenset)):
        return CONTAINER_OVERHEAD + sum(chained_wire_size(item) for item in payload)
    if isinstance(payload, dict):
        return CONTAINER_OVERHEAD + sum(
            chained_wire_size(k) + chained_wire_size(v) for k, v in payload.items()
        )
    if is_dataclass(payload) and not isinstance(payload, type):
        _FIELD_NAMES[type(payload)] = tuple(f.name for f in fields(payload))
        return chained_wire_size(payload)
    raise TypeError(f"wire_size: unsupported payload type {type(payload)!r}")
