"""Regions of the plane: disks and regular grids of virtual-node sites.

Section 4 of the paper replicates virtual node ``v`` at every device within
distance ``R1/4`` of its home location, and schedules virtual nodes so that
two nodes scheduled together are farther apart than ``R1 + 2*R2``.  These
helpers express both notions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .points import Point


def in_region(center: Point, here: Point, radius: float) -> bool:
    """Emulation-region membership, shared by role assignment and the
    regional manager.  A ``hypot`` test: the squared :meth:`Point.within`
    can disagree with it on the boundary."""
    return center.distance_to(here) <= radius


@dataclass(frozen=True, slots=True)
class Disk:
    """A closed disk: the region within ``radius`` of ``center``."""

    center: Point
    radius: float

    def __post_init__(self) -> None:
        if self.radius < 0:
            raise ValueError(f"disk radius must be non-negative, got {self.radius}")

    def contains(self, point: Point) -> bool:
        return self.center.within(point, self.radius)

    def intersects(self, other: "Disk") -> bool:
        return self.center.within(other.center, self.radius + other.radius)


@dataclass(frozen=True, slots=True)
class GridSpec:
    """A rectangular grid of virtual-node home locations.

    ``rows`` x ``cols`` sites spaced ``spacing`` apart, with the (0, 0)
    site at ``origin``.  This is the canonical "virtual infrastructure
    deployed at regular locations throughout the world" of Section 1.2.
    """

    rows: int
    cols: int
    spacing: float
    origin: Point = Point(0.0, 0.0)

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ValueError("grid must have at least one row and one column")
        if self.spacing <= 0:
            raise ValueError("grid spacing must be positive")

    def site(self, row: int, col: int) -> Point:
        """Home location of the virtual node at grid coordinate (row, col)."""
        if not (0 <= row < self.rows and 0 <= col < self.cols):
            raise IndexError(f"grid coordinate ({row}, {col}) out of range")
        return Point(
            self.origin.x + col * self.spacing,
            self.origin.y + row * self.spacing,
        )

    def sites(self) -> Iterator[Point]:
        """All home locations in row-major order."""
        for row in range(self.rows):
            for col in range(self.cols):
                yield self.site(row, col)

    def __len__(self) -> int:
        return self.rows * self.cols

    def nearest_site(self, point: Point) -> tuple[int, int]:
        """Grid coordinate of the site nearest ``point`` (ties break low)."""
        col = round((point.x - self.origin.x) / self.spacing)
        row = round((point.y - self.origin.y) / self.spacing)
        row = min(max(row, 0), self.rows - 1)
        col = min(max(col, 0), self.cols - 1)
        return (row, col)
