"""Unit tests for the regional contention manager of Section 4.2."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.contention import RegionalCM
from repro.errors import ConfigurationError
from repro.geometry import Point, in_region
from repro.net import LinearMobility
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
        answers = [(cm.advise(r, contenders), cm.settled_through >= r)
                   for cm in twins]
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
            assert cm.settled_through < r
        assert cm.advise(2, [0, 1]) == frozenset({0})
        assert cm.settled_through < 2
        assert cm.advise(3, [0, 1]) == frozenset({0})
        assert cm.settled_through == 3


class TestTenureHorizon:
    """``settled_through`` of a retained leader: its located position
    stays in region through that round under its speed bound."""

    def seated(self, positions, speed, located_at=0, **kwargs):
        cm = make_cm(positions, max_speed=lambda node: speed,
                     located_at=lambda: located_at, **kwargs)
        cm.advise(0, [0])
        return cm

    def test_horizon_counts_whole_rounds_of_slack(self):
        # 0.25 - 0.05 = 0.2 of slack at 0.03 per round: 6 rounds.
        cm = self.seated({0: Point(0.05, 0)}, 0.03)
        assert cm.advise(1, [0]) == frozenset({0})
        assert cm.settled_through == 6

    def test_horizon_counts_from_the_snapshot_round(self):
        cm = self.seated({0: Point(0.05, 0)}, 0.03, located_at=4)
        cm.advise(5, [0])
        assert cm.settled_through == 4 + 6

    def test_an_immobile_leader_is_settled_forever(self):
        cm = self.seated({0: Point(0.2, 0)}, 0.0)
        cm.advise(1, [0])
        assert cm.settled_through == math.inf

    def test_without_a_speed_bound_only_this_round(self):
        cm = make_cm({0: Point(0.05, 0)})
        cm.advise(0, [0])
        cm.advise(1, [0])
        assert cm.settled_through == 1

    def test_a_leader_on_the_edge_is_settled_through_its_own_round(self):
        cm = self.seated({0: Point(0.25, 0)}, 0.01, located_at=7)
        cm.advise(9, [0])
        assert cm.settled_through == 9

    @given(d=st.floats(0.0, 0.25), angle=st.floats(0.0, 2 * math.pi),
           speed=st.floats(1e-3, 0.3), t0=st.integers(0, 5))
    def test_a_leader_moving_at_its_bound_stays_in_region(self, d, angle,
                                                          speed, t0):
        """Straight out at full speed from the located position of round
        ``t0``: located in region at every round through the horizon."""
        ux, uy = math.cos(angle), math.sin(angle)
        start = Point(d * ux, d * uy)
        if not in_region(Point(0, 0), start, 0.25):
            return
        model = LinearMobility(start, Point(speed * ux, speed * uy))
        model_speed = model.max_speed()
        positions = {0: start}
        cm = make_cm(positions, max_speed=lambda node: model_speed,
                     located_at=lambda: t0)
        cm.advise(t0, [0])
        cm.advise(t0, [0])
        horizon = cm.settled_through
        for k in range(horizon - t0 + 1):
            assert in_region(Point(0, 0), model.position_at(k), 0.25), k
