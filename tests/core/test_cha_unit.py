"""Unit tests for the ChaCore state machine, driven event by event.

These tests exercise Figure 1 line-by-line, including the Figure 2 colour
table, without any simulator: the channel is played by hand.
"""

import pytest

from _cores import begin, end
from repro.core import Ballot, ChaCore, calculate_history_reference
from repro.core.history import History
from repro.errors import ProtocolError
from repro.types import BOTTOM, Color


def make_core(values=None):
    values = values or {}
    return ChaCore(propose=lambda k: values.get(k, f"v{k}"))


def run_instance(core, *, ballots=None, ballot_collision=False,
                 veto1=False, veto1_collision=False,
                 veto2=False, veto2_collision=False,
                 include_own=True):
    """Drive one full instance; returns (instance, output)."""
    own = begin(core)
    received = list(ballots or [])
    if include_own and not ballots:
        received = [own.ballot]
    core.step_ballot(received, ballot_collision)
    core.step_veto1(veto1, veto1_collision)
    return end(core, veto2, veto2_collision)


class TestFigure2ColorTable:
    """Each row of Figure 2: phase outcomes -> colour -> output."""

    def test_row_all_clean_is_green_with_history(self):
        core = make_core()
        k, output = run_instance(core)
        assert core.color_of(k) is Color.GREEN
        assert output is not BOTTOM
        assert output(1) == "v1"

    def test_row_veto2_trouble_is_yellow_bottom(self):
        core = make_core()
        k, output = run_instance(core, veto2_collision=True)
        assert core.color_of(k) is Color.YELLOW
        assert output is BOTTOM

    def test_row_veto1_trouble_is_orange_bottom(self):
        core = make_core()
        k, output = run_instance(core, veto1_collision=True, veto2=True)
        assert core.color_of(k) is Color.ORANGE
        assert output is BOTTOM

    def test_row_ballot_trouble_is_red_bottom(self):
        core = make_core()
        k, output = run_instance(
            core, ballot_collision=True, veto1=True, veto2=True,
            include_own=False,
        )
        assert core.color_of(k) is Color.RED
        assert output is BOTTOM

    def test_empty_ballot_reception_is_red(self):
        core = make_core()
        begin(core)
        core.step_ballot([], collision=False)
        assert core.color_of(1) is Color.RED

    def test_veto_message_downgrades_like_collision(self):
        core = make_core()
        k, output = run_instance(core, veto1=True, veto2=True)
        assert core.color_of(k) is Color.ORANGE


class TestColorLattice:
    def test_red_never_upgraded_by_veto_phases(self):
        core = make_core()
        run_instance(core, ballot_collision=True, include_own=False)
        assert core.color_of(1) is Color.RED

    def test_orange_not_downgraded_to_yellow(self):
        # min() keeps the worst colour: orange survives a veto-2 collision.
        core = make_core()
        run_instance(core, veto1_collision=True, veto2_collision=True)
        assert core.color_of(1) is Color.ORANGE

    def test_is_good_boundary(self):
        assert Color.GREEN.is_good and Color.YELLOW.is_good
        assert not Color.ORANGE.is_good and not Color.RED.is_good

    def test_shade_distance(self):
        assert Color.GREEN.shade_distance(Color.YELLOW) == 1
        assert Color.RED.shade_distance(Color.GREEN) == 3


class TestVetoDecisions:
    def test_red_vetoes_in_both_phases(self):
        core = make_core()
        begin(core)
        core.step_ballot([], collision=True)
        assert core.veto_due(1)
        core.step_veto1(False, False)
        assert core.veto_due(2)

    def test_orange_vetoes_only_in_veto2(self):
        core = make_core()
        own = begin(core)
        core.step_ballot([own.ballot], collision=False)
        assert not core.veto_due(1)
        core.step_veto1(True, False)
        assert core.veto_due(2)

    def test_green_never_vetoes(self):
        core = make_core()
        own = begin(core)
        core.step_ballot([own.ballot], collision=False)
        assert not core.veto_due(1)
        core.step_veto1(False, False)
        assert not core.veto_due(2)


class TestPrevInstancePointer:
    def test_good_instances_advance_prev(self):
        core = make_core()
        run_instance(core)
        assert core.prev_instance == 1
        run_instance(core, veto2_collision=True)  # yellow is still good
        assert core.prev_instance == 2

    def test_bad_instances_do_not_advance_prev(self):
        core = make_core()
        run_instance(core)
        run_instance(core, veto1_collision=True, veto2=True)  # orange
        assert core.prev_instance == 1
        run_instance(core, ballot_collision=True, include_own=False)  # red
        assert core.prev_instance == 1

    def test_ballot_carries_prev_pointer(self):
        core = make_core()
        run_instance(core)
        payload = begin(core)
        assert payload.ballot.prev_instance == 1


class TestBallotAdoption:
    def test_min_ballot_adopted(self):
        core = make_core()
        begin(core)
        core.step_ballot(
            [Ballot("zz", 0), Ballot("aa", 0)], collision=False,
        )
        assert core.ballots[1] == Ballot("aa", 0)

    def test_red_instance_stores_no_ballot(self):
        core = make_core()
        begin(core)
        core.step_ballot([Ballot("aa", 0)], collision=True)
        assert 1 not in core.ballots

    def test_proposals_recorded(self):
        core = make_core(values={1: "first", 2: "second"})
        run_instance(core)
        run_instance(core)
        assert core.proposals_made == {1: "first", 2: "second"}


class TestCalculateHistory:
    def test_straight_chain(self):
        ballots = {
            1: Ballot("a", 0),
            2: Ballot("b", 1),
            3: Ballot("c", 2),
        }
        h = calculate_history_reference(3, 3, ballots)
        assert h == History(3, {1: "a", 2: "b", 3: "c"})

    def test_chain_skips_bad_instances(self):
        # Instance 2 was bad: ballot 3's prev pointer jumps over it.
        ballots = {
            1: Ballot("a", 0),
            3: Ballot("c", 1),
        }
        h = calculate_history_reference(3, 3, ballots)
        assert h == History(3, {1: "a", 3: "c"})
        assert h(2) is BOTTOM

    def test_prev_below_instance(self):
        # Current instance is bad; chain starts at the last good one.
        ballots = {1: Ballot("a", 0), 2: Ballot("b", 1)}
        h = calculate_history_reference(4, 2, ballots)
        assert h == History(4, {1: "a", 2: "b"})

    def test_prev_zero_yields_all_bottom(self):
        h = calculate_history_reference(3, 0, {})
        assert h == History(3, {})

    def test_missing_chain_ballot_raises(self):
        with pytest.raises(ProtocolError):
            calculate_history_reference(2, 2, {})

    def test_instance_zero(self):
        assert calculate_history_reference(0, 0, {}) == History(0, {})


class TestSnapshotRestore:
    def test_roundtrip(self):
        core = make_core()
        run_instance(core)
        run_instance(core, veto2_collision=True)
        snap = core.snapshot()
        other = make_core()
        other.restore(snap)
        assert other.k == core.k
        assert other.prev_instance == core.prev_instance
        assert other.ballots == core.ballots
        assert other.status == core.status

    def test_snapshot_is_a_copy(self):
        core = make_core()
        run_instance(core)
        snap = core.snapshot()
        run_instance(core)
        assert snap["k"] == 1 and core.k == 2


class TestIntrospection:
    def test_decided_history_none_before_any_green(self):
        core = make_core()
        run_instance(core, veto2_collision=True)
        assert core.decided_history() is None

    def test_decided_history_latest_green(self):
        core = make_core()
        run_instance(core)
        run_instance(core, veto2_collision=True)
        h = core.decided_history()
        assert h is not None and h.length == 1

    def test_resident_entries_grow(self):
        core = make_core()
        before = core.resident_entries()
        run_instance(core)
        run_instance(core)
        assert core.resident_entries() > before

    def test_current_history_defined_mid_execution(self):
        core = make_core()
        run_instance(core, veto1_collision=True, veto2=True)
        h = core.current_history()
        assert h.length == 1 and h(1) is BOTTOM
