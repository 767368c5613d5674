"""Plane geometry substrate: points, disks and virtual-node grids."""

from .points import (
    ORIGIN,
    Point,
    centroid,
    max_pairwise_distance,
    pairwise_distances,
)
from .regions import Disk, GridSpec, in_region

__all__ = [
    "ORIGIN",
    "Point",
    "centroid",
    "max_pairwise_distance",
    "pairwise_distances",
    "Disk",
    "GridSpec",
    "in_region",
]
