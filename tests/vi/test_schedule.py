"""Unit tests for virtual-node broadcast schedules (Section 4.1)."""

import math
import random

import pytest
from hypothesis import given, strategies as st

from _oracles import scan_nearest_in_region
from _worlds import vi_orbit_spec
from repro.errors import ConfigurationError, ScheduleError
from repro.geometry import GridSpec, Point
from repro.vi import (
    Schedule,
    SiteIndex,
    VNSite,
    build_schedule,
    conflict_graph,
    verify_schedule,
)

R1, R2 = 1.0, 1.5
CONFLICT = R1 + 2 * R2  # 4.0


def grid_sites(rows, cols, spacing):
    grid = GridSpec(rows=rows, cols=cols, spacing=spacing)
    return [VNSite(i, p) for i, p in enumerate(grid.sites())]


class TestConflictGraph:
    def test_close_sites_conflict(self):
        sites = [VNSite(0, Point(0, 0)), VNSite(1, Point(3.0, 0))]
        g = conflict_graph(sites, r1=R1, r2=R2)
        assert g[0] == [1] and g[1] == [0]

    def test_boundary_distance_conflicts(self):
        sites = [VNSite(0, Point(0, 0)), VNSite(1, Point(CONFLICT, 0))]
        g = conflict_graph(sites, r1=R1, r2=R2)
        assert 1 in g[0]  # paper requires strictly greater distance

    def test_distant_sites_do_not_conflict(self):
        sites = [VNSite(0, Point(0, 0)), VNSite(1, Point(CONFLICT + 0.01, 0))]
        g = conflict_graph(sites, r1=R1, r2=R2)
        assert 1 not in g[0]

    def test_all_sites_are_nodes(self):
        sites = grid_sites(2, 2, 100.0)
        g = conflict_graph(sites, r1=R1, r2=R2)
        assert set(g) == {0, 1, 2, 3}

    def test_keys_and_neighbours_in_site_order(self):
        sites = [VNSite(vn_id, Point(x, 0.0))
                 for vn_id, x in ((7, 0.0), (2, 1.0), (9, 2.0), (4, 9.0))]
        assert list(conflict_graph(sites, r1=R1, r2=R2).items()) == [
            (7, [2, 9]), (2, [7, 9]), (9, [7, 2]), (4, [])]


def random_sites(rng, count, side):
    """``count`` sites with shuffled ids, uniform over a ``side`` square."""
    ids = rng.sample(range(10 * count), count)
    return [VNSite(vn_id, Point(rng.uniform(0, side), rng.uniform(0, side)))
            for vn_id in ids]


def slot_map(schedule, sites):
    return {site.vn_id: schedule.slot_of(site.vn_id) for site in sites}


class TestGreedyColouring:
    """``build_schedule`` is a largest-first greedy colouring, slot for
    slot the one ``networkx.greedy_color(G, "largest_first")`` gives."""

    def _check_greedy(self, sites, min_length=1):
        schedule = build_schedule(sites, r1=R1, r2=R2, min_length=min_length)
        g = conflict_graph(sites, r1=R1, r2=R2)
        slots = slot_map(schedule, sites)
        # Degree-descending, ties in site order (``sorted`` is stable).
        order = sorted(g, key=lambda v: len(g[v]), reverse=True)
        coloured = set()
        for vn_id in order:
            assert all(slots[n] != slots[vn_id] for n in g[vn_id])
            before = {slots[n] for n in g[vn_id] if n in coloured}
            assert slots[vn_id] == min(set(range(len(before) + 1)) - before)
            coloured.add(vn_id)
        assert schedule.length == max(max(slots.values()) + 1, min_length)
        return slots

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           count=st.integers(min_value=1, max_value=30),
           side=st.sampled_from([2.0, 6.0, 15.0, 40.0]),
           min_length=st.integers(min_value=1, max_value=8))
    def test_greedy_properties(self, seed, count, side, min_length):
        sites = random_sites(random.Random(seed), count, side)
        self._check_greedy(sites, min_length)

    def test_orbit_world_sites(self):
        sites = list(vi_orbit_spec().world.sites)
        schedule = build_schedule(sites, r1=R1, r2=R2)
        assert schedule.length == 4
        assert slot_map(schedule, sites) == {0: 0, 1: 1, 2: 2, 3: 3}

    def test_perfbench_grid(self):
        # vi-static / vi-mobile: an 8x8 grid at spacing 6, no conflicts.
        sites = [VNSite(i, Point((i % 8) * 6.0, (i // 8) * 6.0))
                 for i in range(64)]
        schedule = build_schedule(sites, r1=R1, r2=R2)
        assert schedule.length == 1
        assert set(slot_map(schedule, sites).values()) == {0}

    def test_dense_grid_slot_map(self):
        sites = grid_sites(3, 3, 2.0)
        schedule = build_schedule(sites, r1=R1, r2=R2)
        assert schedule.length == 6
        assert self._check_greedy(sites) == {
            0: 3, 1: 1, 2: 2, 3: 2, 4: 0, 5: 3, 6: 1, 7: 4, 8: 5}

    def test_matches_networkx(self):
        nx = pytest.importorskip("networkx")
        for seed in range(250):
            rng = random.Random(seed)
            sites = random_sites(rng, rng.randint(1, 40),
                                 rng.choice([2.0, 6.0, 15.0, 40.0]))
            g = nx.Graph()
            g.add_nodes_from(site.vn_id for site in sites)
            for i, a in enumerate(sites):
                for b in sites[i + 1:]:
                    if a.location.within(b.location, CONFLICT):
                        g.add_edge(a.vn_id, b.vn_id)
            want = nx.coloring.greedy_color(g, strategy="largest_first")
            schedule = build_schedule(sites, r1=R1, r2=R2)
            assert slot_map(schedule, sites) == want, seed
            assert schedule.length == max(want.values()) + 1


class TestBuildSchedule:
    def test_isolated_sites_share_slot(self):
        sites = grid_sites(3, 3, 50.0)  # far apart: no conflicts
        schedule = build_schedule(sites, r1=R1, r2=R2)
        assert schedule.length == 1
        assert all(schedule.slot_of(s.vn_id) == 0 for s in sites)

    def test_conflicting_pair_gets_two_slots(self):
        sites = [VNSite(0, Point(0, 0)), VNSite(1, Point(1.0, 0))]
        schedule = build_schedule(sites, r1=R1, r2=R2)
        assert schedule.length == 2
        assert schedule.slot_of(0) != schedule.slot_of(1)

    def test_dense_grid_valid(self):
        sites = grid_sites(4, 4, 2.0)
        schedule = build_schedule(sites, r1=R1, r2=R2)
        verify_schedule(schedule, sites, r1=R1, r2=R2)

    def test_schedule_length_grows_with_density(self):
        sparse = build_schedule(grid_sites(3, 3, 10.0), r1=R1, r2=R2)
        dense = build_schedule(grid_sites(3, 3, 1.0), r1=R1, r2=R2)
        assert dense.length > sparse.length

    def test_schedule_independent_of_count_at_fixed_density(self):
        # Overhead depends only on density (paper Section 1.4): growing the
        # deployment at the same spacing does not grow the schedule much.
        small = build_schedule(grid_sites(3, 3, 6.0), r1=R1, r2=R2)
        large = build_schedule(grid_sites(6, 6, 6.0), r1=R1, r2=R2)
        assert large.length <= small.length + 1

    def test_min_length_respected(self):
        sites = grid_sites(1, 1, 1.0)
        schedule = build_schedule(sites, r1=R1, r2=R2, min_length=5)
        assert schedule.length == 5

    def test_empty_sites_rejected(self):
        with pytest.raises(ScheduleError):
            build_schedule([], r1=R1, r2=R2)

    def test_duplicate_ids_rejected(self):
        sites = [VNSite(0, Point(0, 0)), VNSite(0, Point(10, 0))]
        with pytest.raises(ScheduleError):
            build_schedule(sites, r1=R1, r2=R2)


class TestScheduleSemantics:
    def test_is_scheduled_cycles(self):
        schedule = Schedule({0: 0, 1: 1}, length=2)
        assert schedule.is_scheduled(0, 0)
        assert not schedule.is_scheduled(0, 1)
        assert schedule.is_scheduled(0, 2)
        assert schedule.is_scheduled(1, 1)

    def test_scheduled_in(self):
        schedule = Schedule({0: 0, 1: 1, 2: 0}, length=2)
        assert schedule.scheduled_in(0) == {0, 2}
        assert schedule.scheduled_in(3) == {1}

    def test_contains_and_ids(self):
        schedule = Schedule({7: 0}, length=1)
        assert 7 in schedule
        assert 8 not in schedule
        assert schedule.vn_ids == {7}

    def test_invalid_slot_rejected(self):
        with pytest.raises(ScheduleError):
            Schedule({0: 3}, length=2)

    def test_invalid_length_rejected(self):
        with pytest.raises(ScheduleError):
            Schedule({}, length=0)


class TestVerifySchedule:
    def test_missing_site_detected(self):
        sites = [VNSite(0, Point(0, 0)), VNSite(1, Point(10, 0))]
        schedule = Schedule({0: 0}, length=1)
        with pytest.raises(ScheduleError, match="incomplete"):
            verify_schedule(schedule, sites, r1=R1, r2=R2)

    def test_conflict_detected(self):
        sites = [VNSite(0, Point(0, 0)), VNSite(1, Point(1.0, 0))]
        schedule = Schedule({0: 0, 1: 0}, length=1)
        with pytest.raises(ScheduleError, match="conflict"):
            verify_schedule(schedule, sites, r1=R1, r2=R2)

    def test_valid_schedule_accepted(self):
        sites = [VNSite(0, Point(0, 0)), VNSite(1, Point(1.0, 0))]
        schedule = Schedule({0: 0, 1: 1}, length=2)
        verify_schedule(schedule, sites, r1=R1, r2=R2)


class TestSiteIndex:
    """The per-world site index against the all-sites scan it replaced
    (``_oracles.scan_nearest_in_region``): same site *object* or None."""

    RADIUS = 0.25

    def _check(self, sites, here, radius=RADIUS):
        want = scan_nearest_in_region(sites, here, radius)
        got = SiteIndex(sites, radius).nearest_in_region(here)
        assert got is want, (here, got, want)
        return got

    def test_lookup_by_id(self):
        sites = grid_sites(2, 2, 6.0)
        index = SiteIndex(sites, self.RADIUS)
        assert all(index[site.vn_id] is site for site in sites)
        with pytest.raises(KeyError):
            index[99]

    def test_positions_exactly_on_the_boundary_are_inside(self):
        sites = [VNSite(0, Point(0.0, 0.0))]
        # 0.15 / 0.2 / 0.25 is a 3-4-5 triangle: hypot gives 0.25.
        for here in (Point(0.25, 0.0), Point(0.0, -0.25), Point(-0.25, 0.0),
                     Point(0.15, 0.2), Point(-0.2, -0.15)):
            assert here.distance_to(sites[0].location) == self.RADIUS
            assert self._check(sites, here) is sites[0]
        beyond = math.nextafter(self.RADIUS, math.inf)
        assert self._check(sites, Point(beyond, 0.0)) is None

    def test_boundary_across_a_cell_edge(self):
        # The site sits just inside one grid cell and the device a full
        # radius away in the next but one: only the padded cover and the
        # exact predicate together get this right.
        for x in (0.5, 1.0, -0.5, 3.0000000000000004):
            sites = [VNSite(7, Point(x, x))]
            for dx in (self.RADIUS, -self.RADIUS):
                self._check(sites, Point(x + dx, x))
                self._check(sites, Point(x, x + dx))

    def test_equidistant_sites_tie_break_by_vn_id(self):
        sites = [VNSite(5, Point(0.2, 0.0)), VNSite(2, Point(-0.2, 0.0)),
                 VNSite(9, Point(0.0, 0.2))]
        assert self._check(sites, Point(0.0, 0.0)).vn_id == 2

    def test_overlapping_regions_pick_the_nearest(self):
        sites = grid_sites(3, 3, 0.3)       # spacing < 2 * radius
        assert self._check(sites, Point(0.31, 0.29)).vn_id == 4
        assert self._check(sites, Point(0.14, 0.0)).vn_id == 0

    def test_negative_coordinates(self):
        sites = [VNSite(0, Point(-6.0, -6.0)), VNSite(1, Point(-0.1, -12.3))]
        assert self._check(sites, Point(-6.1, -5.9)).vn_id == 0
        assert self._check(sites, Point(-0.2, -12.2)).vn_id == 1

    def test_one_site_world(self):
        sites = [VNSite(3, Point(1.0, 1.0))]
        assert self._check(sites, Point(1.1, 1.1)).vn_id == 3
        assert self._check(sites, Point(2.0, 2.0)) is None

    def test_far_from_every_site(self):
        assert self._check(grid_sites(8, 8, 6.0), Point(1e6, -1e6)) is None
        assert self._check(grid_sites(8, 8, 6.0), Point(3.0, 3.0)) is None

    def test_non_positive_radius_rejected(self):
        with pytest.raises(ConfigurationError):
            SiteIndex([VNSite(0, Point(0, 0))], 0.0)

    @given(spacing=st.sampled_from([0.2, 0.3, 0.5, 0.7, 6.0]),
           side=st.integers(min_value=1, max_value=4),
           origin=st.floats(min_value=-50.0, max_value=50.0),
           near=st.integers(min_value=0, max_value=15),
           angle=st.floats(min_value=0.0, max_value=2 * math.pi),
           reach=st.sampled_from([0.0, 0.5, 1.0, 1.0 - 2**-53, 1.0 + 2**-52,
                                  1.5, 3.0]))
    def test_matches_scan_on_lattices(self, spacing, side, origin, near,
                                      angle, reach):
        """Positions at a chosen multiple of the radius (on it, an ulp
        either side, well inside, well outside) around one site of a
        lattice whose regions overlap or not."""
        sites = [VNSite(i, Point(origin + (i % side) * spacing,
                                 origin + (i // side) * spacing))
                 for i in range(side * side)]
        centre = sites[near % len(sites)].location
        dist = self.RADIUS * reach
        here = Point(centre.x + dist * math.cos(angle),
                     centre.y + dist * math.sin(angle))
        self._check(sites, here)
