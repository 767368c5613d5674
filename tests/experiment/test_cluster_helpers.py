"""Unit tests for the cluster-world helpers and the result's CHAP reads."""

import pytest

from repro import scenario
from repro.experiment import ClusterWorld, cluster_positions, default_proposer
from repro.geometry import Point, max_pairwise_distance
from repro.net import CrashSchedule
from repro.types import BOTTOM


class TestClusterPositions:
    def test_all_within_r1_of_each_other(self):
        # The Section 3 precondition: every pair can communicate.
        positions = cluster_positions(12)
        assert max_pairwise_distance(positions) <= ClusterWorld.r1

    def test_positions_distinct(self):
        positions = cluster_positions(8)
        assert len(set(p.as_tuple() for p in positions)) == 8

    def test_custom_center(self):
        positions = cluster_positions(4, center=Point(10, 10), radius=0.1)
        for p in positions:
            assert Point(10, 10).within(p, 0.1 + 1e-9)

    def test_zero_nodes_rejected(self):
        with pytest.raises(ValueError):
            cluster_positions(0)


class TestDefaultProposer:
    def test_fixed_width_values(self):
        propose = default_proposer(3)
        assert len(propose(1)) == len(propose(999_999))

    def test_distinct_across_nodes_and_instances(self):
        a, b = default_proposer(0), default_proposer(1)
        assert a(1) != b(1)
        assert a(1) != a(2)

    def test_values_totally_ordered(self):
        propose = default_proposer(0)
        assert propose(1) < propose(2)  # zero-padding keeps string order


class TestResultAccessors:
    def test_surviving_nodes_without_crashes(self):
        result = scenario().nodes(3).instances(2).cha().run()
        assert result.surviving_nodes() == [0, 1, 2]

    def test_outputs_and_proposals_cover_all_nodes(self):
        result = scenario().nodes(4).instances(3).cha().run()
        assert set(result.outputs) == set(result.proposals) == {0, 1, 2, 3}
        assert result.instances == 3

    def test_colors_at_only_survivors(self):
        result = (scenario().nodes(3).instances(5).cha()
                  .crashes(CrashSchedule.of({1: 4})).run())
        assert set(result.colors_at(5)) == {0, 2}

    def test_history_of_matches_outputs(self):
        result = scenario().nodes(2).instances(6).cha().run()
        last_output = [out for _, out in result.outputs[0]
                       if out is not BOTTOM][-1]
        assert result.history_of(0) == last_output

    def test_instances_from_a_round_budget(self):
        result = scenario().nodes(3).rounds(10).two_phase_cha().run()
        assert result.instances == 5
