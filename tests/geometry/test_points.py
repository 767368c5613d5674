"""Unit tests for plane-geometry primitives."""

import dataclasses
import math
import pickle
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from _oracles import bits, composed_moved_toward
from repro.geometry import (
    ORIGIN,
    Point,
    centroid,
    max_pairwise_distance,
    pairwise_distances,
)


class TestPoint:
    def test_distance_symmetric(self):
        a, b = Point(0, 0), Point(3, 4)
        assert a.distance_to(b) == 5.0
        assert b.distance_to(a) == 5.0

    def test_distance_to_self_is_zero(self):
        p = Point(2.5, -1.5)
        assert p.distance_to(p) == 0.0

    def test_within_is_inclusive_on_boundary(self):
        assert Point(0, 0).within(Point(3, 4), 5.0)

    def test_within_false_outside(self):
        assert not Point(0, 0).within(Point(3, 4), 4.999)

    def test_within_exact_for_integers(self):
        # Squared-distance comparison avoids sqrt rounding.
        assert Point(0, 0).within(Point(1, 1), math.sqrt(2) + 1e-9)

    def test_add_sub_roundtrip(self):
        a, b = Point(1, 2), Point(-3, 5)
        assert (a + b) - b == a

    def test_scaled(self):
        assert Point(1, -2).scaled(3) == Point(3, -6)

    def test_norm(self):
        assert Point(3, 4).norm() == 5.0

    def test_unit_of_zero_vector_is_zero(self):
        assert Point(0, 0).unit() == Point(0, 0)

    def test_unit_has_norm_one(self):
        u = Point(3, 4).unit()
        assert math.isclose(u.norm(), 1.0)

    def test_moved_toward_does_not_overshoot(self):
        a, target = Point(0, 0), Point(1, 0)
        assert a.moved_toward(target, 5.0) == target

    def test_moved_toward_partial(self):
        a, target = Point(0, 0), Point(10, 0)
        assert a.moved_toward(target, 4.0) == Point(4.0, 0.0)

    def test_moved_toward_zero_step_stays(self):
        a, target = Point(1, 1), Point(2, 2)
        assert a.moved_toward(target, 0.0) == a

    def test_as_tuple(self):
        assert Point(1.5, 2.5).as_tuple() == (1.5, 2.5)

    def test_points_are_hashable_and_frozen(self):
        p = Point(1, 2)
        assert hash(p) == hash(Point(1, 2))
        with pytest.raises(Exception):
            p.x = 3  # type: ignore[misc]


class TestHelpers:
    def test_centroid_single_point(self):
        assert centroid([Point(2, 3)]) == Point(2, 3)

    def test_centroid_square(self):
        square = [Point(0, 0), Point(2, 0), Point(2, 2), Point(0, 2)]
        assert centroid(square) == Point(1, 1)

    def test_centroid_empty_raises(self):
        with pytest.raises(ValueError):
            centroid([])

    def test_pairwise_distances_count(self):
        pts = [Point(i, 0) for i in range(4)]
        assert len(list(pairwise_distances(pts))) == 6

    def test_max_pairwise_distance(self):
        pts = [Point(0, 0), Point(1, 0), Point(5, 0)]
        assert max_pairwise_distance(pts) == 5.0

    def test_max_pairwise_distance_degenerate(self):
        assert max_pairwise_distance([]) == 0.0
        assert max_pairwise_distance([Point(1, 1)]) == 0.0

    def test_origin_constant(self):
        assert ORIGIN == Point(0.0, 0.0)


# ----------------------------------------------------------------------
# Point.moved_toward against its composed definition, bit for bit
# ----------------------------------------------------------------------

#: Finite coordinates over many magnitudes, signed zeros and values with
#: no exact binary form included.
_COORDS = st.one_of(
    st.floats(min_value=-1e6, max_value=1e6),
    st.floats(min_value=-1e-6, max_value=1e-6),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 0.1, 0.7, -1 / 3, 5e-324, 1e-300, 1e300]),
)

#: How ``step`` relates to the gap between the two points.
_STEP_KINDS = ("free", "part-way", "zero", "gap", "just-under", "just-over",
               "negative")


@settings(max_examples=400)
@given(sx=_COORDS, sy=_COORDS, tx=_COORDS, ty=_COORDS,
       kind=st.sampled_from(_STEP_KINDS),
       free=st.floats(min_value=0.0, max_value=1e6),
       same=st.sampled_from(["distinct", "distinct", "equal", "identical"]))
@example(sx=0.0, sy=0.0, tx=-0.0, ty=-0.0, kind="negative", free=1.0,
         same="distinct")
@example(sx=0.7, sy=-0.1, tx=0.7, ty=-0.1, kind="zero", free=0.0,
         same="identical")
def test_moved_toward_matches_composed_definition(sx, sy, tx, ty, kind, free,
                                                  same):
    here = Point(sx, sy)
    target = {"distinct": Point(tx, ty), "equal": Point(sx, sy),
              "identical": here}[same]
    gap = here.distance_to(target)
    step = {"free": free, "part-way": gap * (free % 1.0), "zero": 0.0,
            "gap": gap,
            "just-under": math.nextafter(gap, -math.inf),
            "just-over": math.nextafter(gap, math.inf),
            "negative": -free}[kind]
    want = composed_moved_toward(here, target, step)
    got = here.moved_toward(target, step)
    assert (got is target) == (want is target)
    assert bits(got) == bits(want)


def test_moved_toward_matches_composed_definition_part_way():
    """A dense seeded sweep of the case the mobility models live in — a
    step strictly inside the gap — where a reordered multiplication or
    division shows up as a last-bit difference in a few draws per
    hundred."""
    rng = random.Random(22)
    for _ in range(4000):
        scale = 10.0 ** rng.randint(-3, 3)
        here = Point(rng.uniform(-scale, scale), rng.uniform(-scale, scale))
        target = Point(rng.uniform(-scale, scale), rng.uniform(-scale, scale))
        step = here.distance_to(target) * rng.random()
        assert bits(here.moved_toward(target, step)) == \
            bits(composed_moved_toward(here, target, step))


@pytest.mark.parametrize("here,target,step", [
    (Point(0, 0), Point(3, 4), 2),        # int coordinates, int step
    (Point(0, 0), Point(3, 4), 5),        # arrives: the int-typed target
    (Point(1, 1), Point(1, 1), -1),       # zero vector, negative int step
    (Point(0, 0), Point(1, 0), math.nan),
    (Point(0, 0), Point(1, 0), -math.inf),
    (Point(2.0, 2.0), Point(2.0, 2.0), -math.inf),
])
def test_moved_toward_matches_composed_definition_off_grid(here, target, step):
    """Inputs Hypothesis's float strategies do not draw: int-typed
    coordinates (the result's types follow) and non-finite steps."""
    want = composed_moved_toward(here, target, step)
    got = here.moved_toward(target, step)
    assert (got is target) == (want is target)
    assert bits(got) == bits(want)
    assert (type(got.x), type(got.y)) == (type(want.x), type(want.y))


class TestPointConstructor:
    """``Point`` writes its own ``__init__`` (slots set through their
    member descriptors); everything else is the frozen dataclass's."""

    #: ``pickle.dumps(Point(1.5, -2.0), protocol=4)`` as the generated
    #: dataclass ``__init__`` built it.
    PICKLED = (b"\x80\x04\x95=\x00\x00\x00\x00\x00\x00\x00\x8c\x15"
               b"repro.geometry.points\x94\x8c\x05Point\x94\x93\x94)\x81"
               b"\x94]\x94(G?\xf8\x00\x00\x00\x00\x00\x00G\xc0\x00\x00"
               b"\x00\x00\x00\x00\x00eb.")

    def test_pickles_to_the_same_bytes(self):
        assert pickle.dumps(Point(1.5, -2.0), protocol=4) == self.PICKLED
        assert pickle.loads(self.PICKLED) == Point(1.5, -2.0)

    def test_keyword_construction(self):
        assert Point(y=-2.0, x=1.5) == Point(1.5, -2.0)
        with pytest.raises(TypeError):
            Point(1.0)

    def test_replace(self):
        moved = dataclasses.replace(Point(1.5, -2.0), y=4.0)
        assert type(moved) is Point and moved == Point(1.5, 4.0)

    def test_assignment_is_refused(self):
        p = Point(1.5, -2.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.x = 3.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            del p.y
        assert p == Point(1.5, -2.0) and not hasattr(p, "__dict__")

    def test_equal_points_hash_equal(self):
        a, b = Point(1.5, -2.0), Point(1.5, -2.0)
        assert a == b and a is not b and hash(a) == hash(b)
        assert a != Point(-2.0, 1.5)
        assert repr(a) == "Point(x=1.5, y=-2.0)"
        assert [f.name for f in dataclasses.fields(Point)] == ["x", "y"]
