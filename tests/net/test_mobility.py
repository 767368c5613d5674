"""Unit tests for mobility models."""

import math

import pytest
from hypothesis import given, strategies as st

from _oracles import bits, orbit_position
from repro.geometry import Point
from repro.net.mobility import (
    LinearMobility,
    MobilityModel,
    OrbitMobility,
    RandomWaypointMobility,
    StaticMobility,
    WaypointMobility,
)


class TestStatic:
    def test_never_moves(self):
        m = StaticMobility(Point(1, 2))
        assert m.position_at(0) == m.position_at(1000) == Point(1, 2)

    def test_max_speed_zero(self):
        assert StaticMobility(Point(0, 0)).max_speed() == 0.0


class TestLinear:
    def test_positions_follow_velocity(self):
        m = LinearMobility(Point(0, 0), Point(1, -2))
        assert m.position_at(0) == Point(0, 0)
        assert m.position_at(3) == Point(3, -6)

    def test_max_speed_is_velocity_norm(self):
        m = LinearMobility(Point(0, 0), Point(3, 4))
        assert m.max_speed() == 5.0


class TestWaypoint:
    def test_walks_through_waypoints(self):
        m = WaypointMobility(Point(0, 0), [Point(2, 0), Point(2, 2)], speed=1.0)
        assert m.position_at(1) == Point(1, 0)
        assert m.position_at(2) == Point(2, 0)
        assert m.position_at(3) == Point(2, 1)
        assert m.position_at(4) == Point(2, 2)

    def test_parks_at_final_waypoint(self):
        m = WaypointMobility(Point(0, 0), [Point(1, 0)], speed=1.0)
        assert m.position_at(100) == Point(1, 0)

    def test_respects_speed_bound(self):
        m = WaypointMobility(Point(0, 0), [Point(10, 0)], speed=0.5)
        for r in range(20):
            step = m.position_at(r).distance_to(m.position_at(r + 1))
            assert step <= 0.5 + 1e-12

    def test_negative_speed_rejected(self):
        with pytest.raises(ValueError):
            WaypointMobility(Point(0, 0), [Point(1, 0)], speed=-1.0)

    def test_zero_speed_parks_at_start_with_one_stored_position(self):
        """A walk that cannot progress used to spin to its 100 000-round
        horizon, storing 100 000 equal points per node."""
        start = Point(0, 0)
        m = WaypointMobility(start, [Point(1, 0)], speed=0.0)
        assert len(m._positions) == 1
        assert m.position_at(10**6) is start
        assert not any(m.moved_in(r) for r in range(1, 20))

    def test_step_below_the_float_grid_parks_where_it_stalls(self):
        # 1e-20 is far below the spacing of doubles near 1.0: the first
        # step already rounds back to the start.
        m = WaypointMobility(Point(1.0, 1.0), [Point(2.0, 1.0)], speed=1e-20)
        assert len(m._positions) == 1
        assert m.position_at(5) == Point(1.0, 1.0)

    def test_starting_on_a_waypoint_still_walks_the_rest(self):
        # "No progress" must not be mistaken for arriving: a step that
        # lands on the waypoint it was already at consumes the waypoint.
        m = WaypointMobility(Point(0, 0), [Point(0, 0), Point(2, 0)],
                             speed=1.0)
        assert [m.position_at(r) for r in range(4)] == [
            Point(0, 0), Point(0, 0), Point(1, 0), Point(2, 0)]

    def test_horizon_still_bounds_a_long_walk(self):
        m = WaypointMobility(Point(0, 0), [Point(100, 0)], speed=1.0,
                             horizon=10)
        assert len(m._positions) == 10
        assert m.position_at(50) == Point(9, 0)


class TestRandomWaypoint:
    def test_deterministic_given_seed(self):
        kwargs = dict(arena=(0, 0, 10, 10), speed=0.7, seed=42)
        a = RandomWaypointMobility(Point(5, 5), **kwargs)
        b = RandomWaypointMobility(Point(5, 5), **kwargs)
        assert [a.position_at(r) for r in range(50)] == [
            b.position_at(r) for r in range(50)
        ]

    def test_stays_in_arena(self):
        m = RandomWaypointMobility(
            Point(5, 5), arena=(0, 0, 10, 10), speed=2.0, seed=1,
        )
        for r in range(200):
            p = m.position_at(r)
            assert 0 <= p.x <= 10 and 0 <= p.y <= 10

    def test_respects_vmax(self):
        m = RandomWaypointMobility(
            Point(5, 5), arena=(0, 0, 10, 10), speed=0.3, seed=2,
        )
        for r in range(100):
            assert m.position_at(r).distance_to(m.position_at(r + 1)) <= 0.3 + 1e-12

    def test_invalid_arena_rejected(self):
        with pytest.raises(ValueError):
            RandomWaypointMobility(Point(0, 0), arena=(0, 0, 0, 10), speed=1, seed=0)

    def test_random_access_matches_sequential(self):
        m = RandomWaypointMobility(Point(5, 5), arena=(0, 0, 10, 10), speed=1, seed=3)
        late = m.position_at(30)
        assert m.position_at(30) == late
        assert m.position_at(15) == m.position_at(15)


class TestOrbit:
    def test_stays_within_bounding_box(self):
        m = OrbitMobility(Point(0, 0), radius=1.0, speed=0.5)
        for r in range(100):
            p = m.position_at(r)
            assert abs(p.x) <= 1.0 + 1e-9 and abs(p.y) <= 1.0 + 1e-9

    def test_respects_speed(self):
        m = OrbitMobility(Point(0, 0), radius=2.0, speed=0.25)
        for r in range(100):
            assert m.position_at(r).distance_to(m.position_at(r + 1)) <= 0.25 + 1e-9

    def test_period_wraps(self):
        # Perimeter is 8*radius; with speed 1 and radius 1 the period is 8.
        m = OrbitMobility(Point(0, 0), radius=1.0, speed=1.0)
        assert m.position_at(0) == m.position_at(8)

    def test_zero_speed_parks_at_corner(self):
        m = OrbitMobility(Point(0, 0), radius=1.0, speed=0.0)
        assert m.position_at(0) == m.position_at(57)

    def test_invalid_radius(self):
        with pytest.raises(ValueError):
            OrbitMobility(Point(0, 0), radius=0.0, speed=1.0)

    @staticmethod
    def _assert_matches_oracle(anchor, radius, speed, rounds):
        model = OrbitMobility(anchor, radius=radius, speed=speed)
        for r in rounds:
            want, want_is_corner = orbit_position(anchor, radius, speed, r)
            got = model.position_at(r)
            assert bits(got) == bits(want), (anchor, radius, speed, r)
            # A corner is a stored object, anything else a fresh Point:
            # asking twice tells them apart from outside.
            assert (model.position_at(r) is got) == want_is_corner, \
                (anchor, radius, speed, r)

    #: (anchor, radius, speed).  Rounds cover four laps (or 60 rounds
    #: when parked).
    ORBITS = [
        (Point(0, 0), 1.0, 0.5),                # exact: corners never "reached"
        (Point(0, 0), 1.0, 0.0),                # parked
        (Point(0, 0), 1, 1),                    # int-typed everything
        (Point(0.7, 0.7), 0.1, 0.03),           # non-representable anchor
        (Point(-3.3, 12.1), 0.13, 0.017),       # negative coordinate
        (Point(6.0, 42.0), 0.1173, 0.01),       # the benchmark's shape
        (Point(1 / 3, -2 / 7), 0.05, 0.23),     # speed > side: corners skipped
        (Point(1e9, -1e9), 0.125, 0.01),        # coarse float grid at the anchor
        (Point(1e17, 0.0), 1.0, 0.3),           # radius below the grid: collapsed
    ]

    @pytest.mark.parametrize("anchor,radius,speed", ORBITS)
    def test_position_matches_edge_walk_oracle(self, anchor, radius, speed):
        lap = math.ceil(8.0 * radius / speed) if speed else 15
        self._assert_matches_oracle(anchor, radius, speed, range(4 * lap + 1))

    def test_rounded_edge_returns_the_corner_object(self):
        """0.7 + 0.1 rounds down, so the edge is shorter than ``side``
        and the tail of the walk along it lands on the corner itself —
        the identity case the sweep above must have met."""
        anchor, radius, speed = Point(0.7, 0.7), 0.1, 0.03
        assert any(orbit_position(anchor, radius, speed, r)[1]
                   for r in range(120))

    @given(ax=st.floats(min_value=-1e3, max_value=1e3),
           ay=st.floats(min_value=-1e3, max_value=1e3),
           radius=st.floats(min_value=1e-3, max_value=10.0),
           speed=st.one_of(st.just(0.0),
                           st.floats(min_value=1e-4, max_value=30.0)),
           first=st.integers(min_value=0, max_value=10**6))
    def test_position_matches_edge_walk_oracle_property(self, ax, ay, radius,
                                                        speed, first):
        self._assert_matches_oracle(Point(ax, ay), radius, speed,
                                    range(first, first + 40))


class TestDirtySetProtocol:
    """The moved_in contract: False promises position_at(r) IS
    position_at(r-1) — the identity the batched engine's dirty set
    relies on to skip rebuilding position entries."""

    MODELS = [
        ("static", lambda: StaticMobility(Point(1, 2))),
        ("linear", lambda: LinearMobility(Point(0, 0), Point(0.1, 0.0))),
        ("linear-parked", lambda: LinearMobility(Point(0, 0), Point(0, 0))),
        ("waypoint", lambda: WaypointMobility(
            Point(0, 0), [Point(1, 0), Point(1, 1)], speed=0.3)),
        ("waypoint-parked", lambda: WaypointMobility(Point(2, 2), [], speed=1.0)),
        ("random-waypoint", lambda: RandomWaypointMobility(
            Point(0, 0), arena=(-2, -2, 2, 2), speed=0.4, seed=7)),
        ("orbit", lambda: OrbitMobility(Point(0, 0), radius=1.0, speed=0.5)),
    ]

    @pytest.mark.parametrize("name,factory", MODELS,
                             ids=[name for name, _ in MODELS])
    def test_moved_in_false_implies_identity(self, name, factory):
        model = factory()
        for r in range(1, 60):
            if not model.moved_in(r):
                assert model.position_at(r) is model.position_at(r - 1), \
                    f"{name}: round {r} broke the identity promise"

    def test_waypoint_reports_clean_once_parked(self):
        model = WaypointMobility(Point(0, 0), [Point(0, 1)], speed=0.5)
        horizon = len(model._positions)
        assert all(model.moved_in(r) for r in range(1, horizon))
        assert not any(model.moved_in(r) for r in range(horizon, horizon + 20))

    def test_static_always_clean_conservative_models_always_dirty(self):
        assert not StaticMobility(Point(0, 0)).moved_in(5)
        # Fresh-Point-per-call models must keep the conservative default.
        assert LinearMobility(Point(0, 0), Point(0, 0)).moved_in(5)
        assert OrbitMobility(Point(0, 0), radius=1.0, speed=0.0).moved_in(5)
        assert RandomWaypointMobility(
            Point(0, 0), arena=(-1, -1, 1, 1), speed=0.0, seed=1).moved_in(5)


class TestDirtySetEngineIntegration:
    """k movers among n nodes cost O(k) position updates per round on
    the batched engine (the ISSUE's mobility property test)."""

    class _Counting(WaypointMobility):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.position_calls = 0

        def position_at(self, r):
            self.position_calls += 1
            return super().position_at(r)

    @pytest.mark.parametrize("n,k", [(12, 0), (12, 3), (20, 5)])
    def test_only_movers_pay_position_updates(self, n, k):
        from repro.net import RadioSpec, Simulator

        class Quiet:
            def contend(self, r): return None
            def send(self, r, active): return None
            def deliver(self, r, messages, collision): pass

        sim = Simulator(spec=RadioSpec(r1=1.0, r2=1.5))
        models = []
        for i in range(n):
            if i < k:
                # Long walk: stays dirty for the whole run.
                model = self._Counting(
                    Point(i * 0.1, 0.0), [Point(i * 0.1, 50.0)], speed=0.05)
            else:
                # Parks immediately: dirty only while the engine warms up.
                model = self._Counting(Point(i * 0.1, 0.0), [], speed=1.0)
            models.append(model)
            sim.add_node(Quiet(), model)

        warmup = 2
        sim.run(warmup)
        for m in models:
            m.position_calls = 0
        rounds = 30
        sim.run(rounds)

        movers = models[:k]
        parked = models[k:]
        # Every mover is consulted once per round; every parked node not
        # at all — O(k) total updates, not O(n).
        assert all(m.position_calls == rounds for m in movers)
        assert all(m.position_calls == 0 for m in parked)

    def test_reference_engine_still_consults_everyone(self):
        from repro.net import RadioSpec, Simulator
        from repro.switches import Switches

        class Quiet:
            def contend(self, r): return None
            def send(self, r, active): return None
            def deliver(self, r, messages, collision): pass

        sim = Simulator(spec=RadioSpec(r1=1.0, r2=1.5),
                        switches=Switches(engine=True))
        model = self._Counting(Point(0, 0), [], speed=1.0)
        sim.add_node(Quiet(), model)
        sim.run(10)
        assert model.position_calls == 10


# ----------------------------------------------------------------------
# The speed bound is a contract
# ----------------------------------------------------------------------

def _models_in_src() -> set[type]:
    """Every concrete MobilityModel subclass the library defines."""
    found, todo = set(), [MobilityModel]
    while todo:
        for sub in todo.pop().__subclasses__():
            todo.append(sub)
            if sub.__module__.startswith("repro."):
                found.add(sub)
    return found


_coord = st.floats(min_value=-50.0, max_value=50.0)
_point = st.builds(Point, _coord, _coord)
_speed = st.floats(min_value=0.0, max_value=2.0)

#: A strategy per model; a model added to the library without one fails
#: ``test_every_model_has_a_speed_strategy``.
MODEL_STRATEGIES = {
    StaticMobility: st.builds(StaticMobility, _point),
    LinearMobility: st.builds(LinearMobility, _point,
                              st.builds(Point, st.floats(-2.0, 2.0),
                                        st.floats(-2.0, 2.0))),
    WaypointMobility: st.builds(
        lambda start, points, speed: WaypointMobility(start, points, speed,
                                                      horizon=400),
        _point, st.lists(_point, max_size=4), _speed),
    RandomWaypointMobility: st.builds(
        lambda start, speed, seed: RandomWaypointMobility(
            start, arena=(-20.0, -20.0, 20.0, 20.0), speed=speed, seed=seed),
        _point, _speed, st.integers(0, 1 << 20)),
    OrbitMobility: st.builds(OrbitMobility, _point,
                             st.floats(min_value=0.01, max_value=10.0),
                             _speed),
}


def test_every_model_has_a_speed_strategy():
    assert _models_in_src() == set(MODEL_STRATEGIES)


@given(model=st.one_of(*MODEL_STRATEGIES.values()),
       r=st.integers(min_value=0, max_value=300))
def test_no_model_moves_faster_than_its_max_speed(model, r):
    """``max_speed()`` bounds every per-round displacement, up to float
    slop: the regional managers' tenure horizons rely on it."""
    here, there = model.position_at(r), model.position_at(r + 1)
    slop = 1e-9 * (1.0 + abs(here.x) + abs(here.y))
    assert here.distance_to(there) <= model.max_speed() + slop
