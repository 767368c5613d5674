"""Unit tests for the regional contention manager of Section 4.2."""

import pytest

from repro.contention import RegionalCM
from repro.errors import ConfigurationError
from repro.geometry import Point
from repro.vi import SiteIndex, VNSite


def make_cm(positions, **kwargs):
    defaults = dict(
        location=Point(0, 0),
        region_radius=0.25,
        locate=lambda node: positions[node],
    )
    defaults.update(kwargs)
    return RegionalCM(**defaults)


class TestRegionalCM:
    def test_elects_closest_contender(self):
        positions = {0: Point(0.2, 0), 1: Point(0.05, 0), 2: Point(0.1, 0)}
        cm = make_cm(positions)
        assert cm.advise(0, [0, 1, 2]) == frozenset({1})
        assert cm.leader == 1

    def test_out_of_region_contenders_ignored(self):
        positions = {0: Point(5, 5), 1: Point(0.1, 0)}
        cm = make_cm(positions)
        assert cm.advise(0, [0, 1]) == frozenset({1})

    def test_no_eligible_contenders(self):
        positions = {0: Point(5, 5)}
        cm = make_cm(positions)
        assert cm.advise(0, [0]) == frozenset()
        assert cm.leader is None

    def test_sitting_leader_retained(self):
        positions = {0: Point(0.2, 0), 1: Point(0.05, 0)}
        cm = make_cm(positions)
        cm.advise(0, [0, 1])
        # Node 0 becomes closer, but the sitting leader (1) is retained.
        positions[0] = Point(0.01, 0)
        assert cm.advise(1, [0, 1]) == frozenset({1})

    def test_reelection_when_leader_leaves_region(self):
        positions = {0: Point(0.2, 0), 1: Point(0.05, 0)}
        cm = make_cm(positions)
        cm.advise(0, [0, 1])
        positions[1] = Point(3, 3)  # leader walks away
        assert cm.advise(1, [0, 1]) == frozenset({0})

    def test_reelection_when_leader_stops_contending(self):
        positions = {0: Point(0.2, 0), 1: Point(0.05, 0)}
        cm = make_cm(positions)
        cm.advise(0, [0, 1])
        assert cm.advise(1, [0]) == frozenset({0})

    def test_unknown_location_treated_as_out_of_region(self):
        cm = RegionalCM(
            location=Point(0, 0), region_radius=1.0,
            locate=lambda node: (_ for _ in ()).throw(KeyError(node)),
        )
        assert cm.advise(0, [0]) == frozenset()

    def test_pre_stability_chaos_lets_everyone_through(self):
        positions = {0: Point(0.1, 0), 1: Point(0.2, 0)}
        cm = make_cm(positions, stable_round=5)
        assert cm.advise(0, [0, 1]) == frozenset({0, 1})
        assert len(cm.advise(5, [0, 1])) == 1

    def test_leader_age(self):
        positions = {0: Point(0.1, 0)}
        cm = make_cm(positions)
        cm.advise(3, [0])
        assert cm.leader_age(10) == 7

    def test_ties_break_by_node_id(self):
        positions = {2: Point(0.1, 0), 1: Point(0.1, 0)}
        cm = make_cm(positions)
        assert cm.advise(0, [1, 2]) == frozenset({1})

    def test_invalid_config(self):
        with pytest.raises(ConfigurationError):
            RegionalCM(location=Point(0, 0), region_radius=0,
                       locate=lambda n: Point(0, 0))


def test_boundary_replica_is_granted_by_its_manager():
    """Role assignment and the manager share one in-region predicate.
    At this point the squared-distance ``Point.within`` says "outside"
    and ``hypot`` says "inside": a device placed here becomes a replica
    of site 0, and site 0's manager must be able to grant it."""
    here = Point(-0.2499134617766362, 0.006577356826096757)
    assert not Point(0, 0).within(here, 0.25)
    site = VNSite(0, Point(0, 0))
    assert SiteIndex([site], 0.25).nearest_in_region(here) is site
    cm = make_cm({0: here})
    assert cm.advise(0, [0]) == frozenset({0})


class TestSettledMemo:
    """The identity-keyed region memo answers as the plain rule.  The
    twin's locator hands out a fresh copy of every position, so its
    memo never hits: it is the plain rule, step for step."""

    def twins(self, positions):
        memo = make_cm(positions)
        plain = make_cm(positions,
                        locate=lambda node: Point(positions[node].x,
                                                  positions[node].y))
        return memo, plain

    def advise_both(self, twins, r, contenders):
        answers = [(cm.advise(r, contenders), cm.settled) for cm in twins]
        assert answers[0] == answers[1]
        return answers[0]

    def test_equal_valued_new_point_keeps_the_leader(self):
        positions = {0: Point(0.2, 0), 1: Point(0.05, 0)}
        twins = self.twins(positions)
        assert self.advise_both(twins, 0, [0, 1]) == (frozenset({1}), False)
        assert self.advise_both(twins, 1, [0, 1]) == (frozenset({1}), True)
        positions[1] = Point(0.05, 0)
        assert self.advise_both(twins, 2, [0, 1]) == (frozenset({1}), True)

    def test_out_of_region_new_point_re_elects(self):
        positions = {0: Point(0.2, 0), 1: Point(0.05, 0)}
        twins = self.twins(positions)
        self.advise_both(twins, 0, [0, 1])
        self.advise_both(twins, 1, [0, 1])
        positions[1] = Point(0.3, 0)
        assert self.advise_both(twins, 2, [0, 1]) == (frozenset({0}), False)
        assert self.advise_both(twins, 3, [0, 1]) == (frozenset({0}), True)

    def test_leader_that_stops_contending_is_replaced(self):
        positions = {0: Point(0.2, 0), 1: Point(0.05, 0)}
        twins = self.twins(positions)
        self.advise_both(twins, 0, [0, 1])
        self.advise_both(twins, 1, [0, 1])
        assert self.advise_both(twins, 2, [0]) == (frozenset({0}), False)
        assert self.advise_both(twins, 3, [0, 1]) == (frozenset({0}), True)

    def test_pre_stability_answers_are_not_settled(self):
        positions = {0: Point(0.1, 0), 1: Point(0.2, 0)}
        cm = make_cm(positions, stable_round=2)
        for r in (0, 1):
            assert cm.advise(r, [0, 1]) == frozenset({0, 1})
            assert not cm.settled
        assert cm.advise(2, [0, 1]) == frozenset({0})
        assert not cm.settled
        assert cm.advise(3, [0, 1]) == frozenset({0})
        assert cm.settled
