"""Virtual-node broadcast schedules (Section 4.1).

A schedule assigns every virtual node one slot in ``[0, s-1]`` such that
no two *conflicting* virtual nodes share a slot, where ``v`` and ``v'``
conflict when ``|ℓv − ℓv'| <= R1 + 2*R2`` (the paper requires scheduled
pairs to be strictly farther apart than that).  A virtual node is
*scheduled* in virtual round ``r`` when ``slot(v) == r mod s``.

Because virtual nodes are static, the schedule is computed once,
centrally, by colouring the conflict graph — exactly the construction the
paper suggests ("based, say, on a coloring of the neighbor graph").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from ..errors import ConfigurationError, ScheduleError
from ..geometry import Point, in_region
from ..net.index import SpatialGridIndex
from ..types import VirtualRound


@dataclass(frozen=True)
class VNSite:
    """A virtual node's identity: an id and a fixed home location."""

    vn_id: int
    location: Point


class SiteIndex:
    """A deployment's sites by id and by place: whose region is this?

    Sites never move, so a :class:`~repro.vi.world.VIWorld` builds one
    index and hands the same object to every device.  ``index[vn_id]``
    is the site; :meth:`nearest_in_region` answers a device's
    boundary-housekeeping question from the handful of grid cells its
    position can share with a region instead of a distance test against
    every site.
    """

    __slots__ = ("region_radius", "_by_id", "_grid", "_reach")

    def __init__(self, sites: Iterable[VNSite], region_radius: float) -> None:
        if region_radius <= 0:
            raise ConfigurationError("region_radius must be positive")
        self.region_radius = region_radius
        self._by_id = {site.vn_id: site for site in sites}
        # Cells one region across: a region-sized disk overlaps 2x2.
        self._grid = SpatialGridIndex(2.0 * region_radius)
        self._grid.update({vn_id: site.location
                           for vn_id, site in self._by_id.items()})
        #: The grid only preselects; membership stays ``in_region`` (a
        #: rounded ``hypot``), which can admit a site an ulp or two
        #: beyond the radius.  The cell cover is taken wider than that
        #: so it cannot miss one.  (The grid's own
        #: squared-distance ``neighbors_within`` is not the same
        #: predicate: it and ``hypot`` can disagree on the boundary.)
        self._reach = region_radius * (1.0 + 1e-9)

    def __getitem__(self, vn_id: int) -> VNSite:
        return self._by_id[vn_id]

    def nearest_in_region(self, here: Point) -> VNSite | None:
        """The site whose region contains ``here``, if any.

        ``in_region(site.location, here, region_radius)``; where regions
        overlap, the minimum by ``(distance, vn_id)``.
        """
        radius = self.region_radius
        by_id = self._by_id
        best: VNSite | None = None
        best_key = None
        for _, bucket in self._grid.buckets_overlapping(here.x, here.y,
                                                        self._reach):
            for vn_id in bucket:
                site = by_id[vn_id]
                if in_region(site.location, here, radius):
                    key = (site.location.distance_to(here), vn_id)
                    if best is None or key < best_key:
                        best, best_key = site, key
        return best


class Schedule:
    """A complete, non-conflicting slot assignment for a set of sites."""

    def __init__(self, slots: dict[int, int], length: int) -> None:
        if length < 1:
            raise ScheduleError("schedule length must be at least 1")
        for vn_id, slot in slots.items():
            if not 0 <= slot < length:
                raise ScheduleError(
                    f"virtual node {vn_id} assigned slot {slot} outside "
                    f"0..{length - 1}"
                )
        self._slots = dict(slots)
        self.length = length

    def slot_of(self, vn_id: int) -> int:
        return self._slots[vn_id]

    def is_scheduled(self, vn_id: int, vr: VirtualRound) -> bool:
        """Whether ``vn_id`` is the scheduled node in virtual round ``vr``."""
        return self._slots[vn_id] == vr % self.length

    def scheduled_in(self, vr: VirtualRound) -> frozenset[int]:
        slot = vr % self.length
        return frozenset(v for v, s in self._slots.items() if s == slot)

    def __len__(self) -> int:
        return self.length

    def __contains__(self, vn_id: int) -> bool:
        return vn_id in self._slots

    @property
    def vn_ids(self) -> frozenset[int]:
        return frozenset(self._slots)


def proximity_graph(sites: list[VNSite], reach: float) -> dict[int, list[int]]:
    """Sites joined when within ``reach``, as ``{vn_id: [neighbour ids]}``.

    The keys and every neighbour list are in site order.
    """
    adjacency: dict[int, list[int]] = {site.vn_id: [] for site in sites}
    for i, a in enumerate(sites):
        for b in sites[i + 1:]:
            if a.location.within(b.location, reach):
                adjacency[a.vn_id].append(b.vn_id)
                adjacency[b.vn_id].append(a.vn_id)
    return adjacency


def conflict_graph(sites: list[VNSite], *, r1: float, r2: float
                   ) -> dict[int, list[int]]:
    """The neighbour graph: ``{vn_id: [ids of the sites it conflicts with]}``.

    Two virtual nodes conflict when their home locations are within
    ``R1 + 2*R2``: a broadcast by (a replica of) one can then reach or
    jam receivers of the other, so they must not share a slot.  The keys
    and every neighbour list are in site order.
    """
    return proximity_graph(sites, r1 + 2.0 * r2)


def build_schedule(sites: list[VNSite], *, r1: float, r2: float,
                   min_length: int = 1) -> Schedule:
    """Colour the conflict graph into a complete, non-conflicting schedule.

    Uses a deterministic largest-first greedy colouring: sites are taken
    by degree, highest first, ties in site order (a stable sort), and
    each takes the smallest colour no already-coloured neighbour holds —
    slot for slot what ``networkx.greedy_color(G, "largest_first")``
    gives.  The schedule length ``s`` is the number of colours used (at
    least ``min_length``).  The length depends only on the *density* of
    the deployment, which is precisely the paper's overhead claim
    (Section 1.4).
    """
    if not sites:
        raise ScheduleError("cannot build a schedule for zero sites")
    ids = [site.vn_id for site in sites]
    if len(set(ids)) != len(ids):
        raise ScheduleError("duplicate virtual-node ids in site list")
    adjacency = conflict_graph(sites, r1=r1, r2=r2)
    slots: dict[int, int] = {}
    for vn_id in sorted(adjacency, key=lambda v: len(adjacency[v]),
                        reverse=True):
        taken = {slots[n] for n in adjacency[vn_id] if n in slots}
        slots[vn_id] = min(set(range(len(taken) + 1)) - taken)
    length = max(max(slots.values()) + 1, min_length)
    return Schedule(slots, length)


def verify_schedule(schedule: Schedule, sites: list[VNSite], *,
                    r1: float, r2: float) -> None:
    """Raise :class:`ScheduleError` unless complete and non-conflicting."""
    missing = {site.vn_id for site in sites} - schedule.vn_ids
    if missing:
        raise ScheduleError(f"schedule is incomplete: missing {sorted(missing)}")
    for vn_id, neighbours in conflict_graph(sites, r1=r1, r2=r2).items():
        slot = schedule.slot_of(vn_id)
        for other in neighbours:
            if schedule.slot_of(other) == slot:
                raise ScheduleError(
                    f"conflicting virtual nodes {vn_id} and {other} share "
                    f"slot {slot}"
                )
