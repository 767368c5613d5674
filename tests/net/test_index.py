"""Unit tests for the spatial-grid neighbor index."""

from __future__ import annotations

import random

import pytest

from repro.geometry import Point
from repro.net import SpatialGridIndex

pytestmark = pytest.mark.fast


def brute_force(positions, center, radius):
    return sorted(
        node for node, p in positions.items()
        if p.within(center, radius)
    )


def test_rejects_nonpositive_cell_size():
    with pytest.raises(ValueError):
        SpatialGridIndex(cell_size=0.0)
    with pytest.raises(ValueError):
        SpatialGridIndex(cell_size=-1.0)


def test_basic_membership_and_eviction():
    index = SpatialGridIndex(cell_size=1.0)
    index.update({0: Point(0.0, 0.0), 1: Point(5.0, 5.0)})
    assert len(index) == 2 and 0 in index and 1 in index
    assert index.coords_of(1) == (5.0, 5.0)

    index.update({1: Point(5.0, 5.0)})  # node 0 vanished
    assert len(index) == 1 and 0 not in index

    index.update({})
    assert len(index) == 0 and index.cell_count() == 0


def test_update_is_incremental():
    index = SpatialGridIndex(cell_size=1.0)
    positions = {i: Point(float(i), 0.0) for i in range(10)}
    assert index.update(positions) == 10
    # Nothing moved: zero work reported.
    assert index.update(positions) == 0
    # One node moves within its cell, another across cells.
    positions[3] = Point(3.2, 0.1)
    positions[7] = Point(-4.0, -4.0)
    assert index.update(positions) == 2
    assert index.neighbors_within(Point(-4.0, -4.0), 0.5) == [7]
    # A removal counts as movement too.
    del positions[5]
    assert index.update(positions) == 1
    assert 5 not in index


def test_exact_boundary_inclusion():
    """Distance exactly equal to the radius is *inside* (<=), matching
    Point.within bit for bit."""
    index = SpatialGridIndex(cell_size=1.5)
    index.update({0: Point(0.0, 0.0), 1: Point(3.0, 0.0), 2: Point(3.0, 4.0)})
    assert index.neighbors_within(Point(0.0, 0.0), 3.0) == [0, 1]
    assert index.neighbors_within(Point(0.0, 0.0), 5.0) == [0, 1, 2]
    assert index.neighbors_within(Point(0.0, 0.0), 4.999999) == [0, 1]


@pytest.mark.parametrize("seed", range(8))
def test_neighbors_match_brute_force(seed):
    rng = random.Random(seed)
    cell = rng.choice([0.3, 1.0, 2.5])
    index = SpatialGridIndex(cell_size=cell)
    positions = {}
    for step in range(30):
        # Random churn each step.
        for node in range(rng.randint(0, 25)):
            positions[node] = Point(rng.uniform(-8, 8), rng.uniform(-8, 8))
        for node in list(positions):
            if rng.random() < 0.1:
                del positions[node]
        index.update(positions)
        center = Point(rng.uniform(-8, 8), rng.uniform(-8, 8))
        radius = rng.uniform(0.1, 6.0)
        assert index.neighbors_within(center, radius) == \
            brute_force(positions, center, radius), (seed, step)


def test_candidates_superset_of_true_neighbors():
    rng = random.Random(99)
    index = SpatialGridIndex(cell_size=1.5)
    positions = {i: Point(rng.uniform(-5, 5), rng.uniform(-5, 5))
                 for i in range(60)}
    index.update(positions)
    center = Point(0.25, -0.75)
    radius = 2.0
    candidates = {node for node, _, _ in index.candidates(center.x, center.y, radius)}
    assert set(brute_force(positions, center, radius)) <= candidates


def test_buckets_come_with_their_cell_key():
    """One distinct key per occupied cell, the same for every query that
    reaches it — what lets the channel keep per-cell notes for a round."""
    index = SpatialGridIndex(cell_size=1.5)
    index.update({0: Point(0.1, 0.1), 1: Point(1.4, 1.4),  # cell (0, 0)
                  2: Point(1.6, 0.1),                      # cell (1, 0)
                  3: Point(-0.1, -0.1)})                   # cell (-1, -1)
    wide = dict(index.buckets_overlapping(0.5, 0.5, 1.5))
    assert {key: sorted(bucket) for key, bucket in wide.items()} == \
        {(0, 0): [0, 1], (1, 0): [2], (-1, -1): [3]}
    narrow = dict(index.buckets_overlapping(1.7, 0.2, 0.3))
    assert set(narrow) == {(0, 0), (1, 0)}
    assert all(narrow[key] is wide[key] for key in narrow)


def test_clear_resets_everything():
    index = SpatialGridIndex(cell_size=1.0)
    index.update({0: Point(1.0, 1.0)})
    index.clear()
    assert len(index) == 0
    assert index.neighbors_within(Point(1.0, 1.0), 10.0) == []
    # Usable again after clear.
    index.update({5: Point(0.0, 0.0)})
    assert index.neighbors_within(Point(0.0, 0.0), 0.1) == [5]
