"""State-transfer coverage: snapshot/restore round-trips and the
``calculate-history`` missing-ballot error path.

The emulation's join protocol ships :meth:`ChaCore.snapshot` dictionaries
between devices, so a restore must be *behaviourally* equivalent — the
restored core has to keep playing the protocol exactly like the donor —
and ``calculate-history`` must fail loudly (not return a corrupt history)
whenever a ``prev-instance`` chain dangles.
"""

import pytest

from _cores import begin, end
from repro.core import Ballot, ChaCore, calculate_history_reference
from repro.core.checkpoint import CheckpointChaCore
from repro.core.history import History
from repro.errors import ProtocolError
from repro.types import BOTTOM, Color


def drive_instance(core, *, veto1=False, veto2=False, collision=False):
    """One full instance where the core hears only its own ballot."""
    own = begin(core)
    core.step_ballot([own.ballot], collision)
    core.step_veto1(veto1, False)
    return end(core, veto2, False)


def count_reducer(state, k, value):
    return state + (0 if value is BOTTOM else 1)


class TestSnapshotRestoreRoundTrip:
    def test_restored_core_continues_identically(self):
        donor = ChaCore(propose=lambda k: f"v{k}")
        drive_instance(donor)
        drive_instance(donor, veto2=True)   # yellow: good but bottom output
        drive_instance(donor, veto1=True)   # orange

        joiner = ChaCore(propose=lambda k: f"v{k}")
        joiner.restore(donor.snapshot())

        # Both cores must now evolve in lock-step under identical inputs.
        for _ in range(3):
            k_a, out_a = drive_instance(donor)
            k_b, out_b = drive_instance(joiner)
            assert (k_a, out_a) == (k_b, out_b)
        assert donor.current_history() == joiner.current_history()
        assert donor.prev_instance == joiner.prev_instance
        assert donor.status == joiner.status

    def test_restore_replaces_all_prior_state(self):
        stale = ChaCore(propose=lambda k: f"s{k}")
        for _ in range(4):
            drive_instance(stale)
        fresh = ChaCore(propose=lambda k: f"f{k}")
        drive_instance(fresh, collision=True)  # red, no ballot stored

        stale.restore(fresh.snapshot())
        assert stale.k == 1
        assert stale.prev_instance == 0
        assert stale.status == {1: Color.RED}
        assert stale.ballots == {}

    def test_snapshot_mutation_does_not_leak_into_donor(self):
        core = ChaCore(propose=lambda k: f"v{k}")
        drive_instance(core)
        snap = core.snapshot()
        snap["status"][1] = Color.RED
        snap["ballots"].clear()
        assert core.status[1] is Color.GREEN
        assert 1 in core.ballots

    def test_checkpoint_core_roundtrip_preserves_fold(self):
        donor = CheckpointChaCore(propose=lambda k: f"v{k}",
                                  reducer=count_reducer, initial_state=0)
        for _ in range(5):
            drive_instance(donor)
        snap = donor.snapshot()
        assert snap["checkpoint_instance"] == 5
        assert snap["checkpoint_state"] == 5

        joiner = CheckpointChaCore(propose=lambda k: f"v{k}",
                                   reducer=count_reducer, initial_state=0)
        joiner.restore(snap)
        assert joiner.checkpoint_instance == donor.checkpoint_instance
        assert joiner.checkpoint_state == donor.checkpoint_state
        k, out = drive_instance(joiner)
        assert k == 6 and out.checkpoint_state == 6

    def test_checkpoint_reset_to_reanchors(self):
        core = CheckpointChaCore(propose=lambda k: f"v{k}",
                                 reducer=count_reducer, initial_state=0)
        for _ in range(3):
            drive_instance(core)
        core.reset_to(10, 0)
        assert core.ballots == {} and core.status == {}
        assert core.current_checkpoint_output().checkpoint_state == 0
        k, out = drive_instance(core)
        assert k == 11
        assert out.checkpoint_instance == 11
        assert out.checkpoint_state == 1  # only the post-reset instance folded


class TestCalculateHistoryErrorPath:
    def test_chain_head_missing_ballot(self):
        with pytest.raises(ProtocolError, match="no ballot is stored"):
            calculate_history_reference(3, 3, {})

    def test_mid_chain_dangling_prev_pointer(self):
        # Ballot 3 points at instance 1, whose ballot was never stored:
        # the walk must fail at 1, not fabricate a history.
        ballots = {3: Ballot("c", 1)}
        with pytest.raises(ProtocolError, match="instance 1"):
            calculate_history_reference(3, 3, ballots)

    def test_intact_chain_still_works(self):
        ballots = {1: Ballot("a", 0), 3: Ballot("c", 1)}
        assert calculate_history_reference(3, 3, ballots) == History(3, {1: "a", 3: "c"})

    def test_restore_of_truncated_snapshot_fails_loudly(self):
        core = ChaCore(propose=lambda k: f"v{k}")
        for _ in range(3):
            drive_instance(core)
        snap = core.snapshot()
        snap["ballots"].pop(2)  # corrupt the chain mid-way
        victim = ChaCore(propose=lambda k: f"v{k}")
        victim.restore(snap)
        with pytest.raises(ProtocolError):
            victim.current_history()
