"""Canned deployment scenarios."""

from .scenarios import (
    R1,
    R2,
    roaming_devices,
    single_region,
    vn_grid,
    vn_line,
)

__all__ = [
    "R1",
    "R2",
    "roaming_devices",
    "single_region",
    "vn_grid",
    "vn_line",
]
