"""Unit tests for the replica runtime, driven phase by phase."""

import pytest

from repro.core.ballot import BallotPayload, VetoPayload
from repro.geometry import Point
from repro.switches import Switches
from repro.types import BOTTOM, Color
from repro.vi import (
    ClientMsg,
    CounterProgram,
    JoinRequest,
    Phase,
    Schedule,
    SilentProgram,
    VNMsg,
    VNSite,
    VirtualObservation,
)
from repro.vi.phases import PhasePosition
from repro.vi.replica import ReplicaRuntime, observation_from_value

SITE = VNSite(0, Point(0, 0))


def make_replica(program=None, schedule=None):
    schedule = schedule or Schedule({0: 0}, length=1)
    return ReplicaRuntime(SITE, program or CounterProgram(), schedule)


def pos(phase, vr=0, slot=0):
    return PhasePosition(vr, phase, slot)


def run_clean_round(replica, vr=0, client_payloads=()):
    """Drive one full virtual round with clean single-leader CHA."""
    replica.send_for(pos(Phase.CLIENT, vr), False)
    replica.deliver_for(
        pos(Phase.CLIENT, vr),
        [ClientMsg(vr, p) for p in client_payloads],
        False,
    )
    msg = replica.send_for(pos(Phase.VN, vr), True)
    replica.deliver_for(pos(Phase.VN, vr), [msg] if msg else [], False)
    ballot = replica.send_for(pos(Phase.SCHED_BALLOT, vr), True)
    replica.deliver_for(pos(Phase.SCHED_BALLOT, vr), [ballot], False)
    assert replica.send_for(pos(Phase.SCHED_VETO1, vr), False) is None
    replica.deliver_for(pos(Phase.SCHED_VETO1, vr), [], False)
    assert replica.send_for(pos(Phase.SCHED_VETO2, vr), False) is None
    replica.deliver_for(pos(Phase.SCHED_VETO2, vr), [], False)
    return msg


class TestObservationDecoding:
    def test_bottom_is_unknown(self):
        assert observation_from_value(BOTTOM) == VirtualObservation.unknown()

    def test_value_decoded(self):
        obs = observation_from_value(((("cl", "x"),), False, True))
        assert obs.messages == (("cl", "x"),) and not obs.collision


class TestCleanRound:
    def test_instance_green_and_aligned(self):
        r = make_replica()
        run_clean_round(r, 0, client_payloads=[("add", 2)])
        assert r.core.k == 1
        assert r.round_colors[0] is Color.GREEN
        assert r.vn_state() == 2

    def test_counter_accumulates_across_rounds(self):
        r = make_replica()
        run_clean_round(r, 0, client_payloads=[("add", 2)])
        run_clean_round(r, 1, client_payloads=[("add", 3)])
        assert r.vn_state() == 5

    def test_vn_message_emitted_by_leader(self):
        r = make_replica()
        msg = run_clean_round(r, 0)
        assert isinstance(msg, VNMsg)
        assert msg.payload == ("count", 0)

    def test_scheduled_non_leader_stays_silent_in_vn_phase(self):
        r = make_replica()
        out = r.send_for(pos(Phase.VN), False)
        assert out is None


class TestVNMessageGating:
    def test_no_emission_when_last_instance_not_green(self):
        r = make_replica()
        # Instance 1 goes yellow (veto-2 collision).
        r.send_for(pos(Phase.CLIENT), False)
        ballot = r.send_for(pos(Phase.SCHED_BALLOT), True)
        r.deliver_for(pos(Phase.SCHED_BALLOT), [ballot], False)
        r.deliver_for(pos(Phase.SCHED_VETO1), [], False)
        r.deliver_for(pos(Phase.SCHED_VETO2), [], True)
        assert r.round_colors[0] is Color.YELLOW
        assert r.vn_message(1) is None

    def test_misaligned_core_never_speaks(self):
        r = make_replica()
        assert r.vn_message(5) is None  # core.k == 0 != 5

    def test_fresh_replica_speaks_at_round_zero(self):
        r = make_replica()
        assert r.vn_message(0) == ("count", 0)


class TestProposals:
    def test_proposal_reflects_observation(self):
        r = make_replica()
        r.send_for(pos(Phase.CLIENT), False)
        r.deliver_for(pos(Phase.CLIENT), [ClientMsg(0, ("add", 1))], False)
        r.deliver_for(pos(Phase.VN), [VNMsg(9, 0, "hi")], True)
        payload = r.send_for(pos(Phase.SCHED_BALLOT), True)
        msgs, collision, vn_sent = payload.ballot.value
        assert ("cl", ("add", 1)) in msgs
        assert ("vn", 9, "hi") in msgs
        assert collision and not vn_sent

    def test_own_vn_message_not_in_observation(self):
        r = make_replica()
        r.send_for(pos(Phase.CLIENT), False)
        r.deliver_for(pos(Phase.VN), [VNMsg(0, 0, ("count", 0))], False)
        payload = r.send_for(pos(Phase.SCHED_BALLOT), True)
        msgs, _, vn_sent = payload.ballot.value
        assert msgs == () and vn_sent

    def test_foreign_tag_ballots_ignored(self):
        r = make_replica()
        r.send_for(pos(Phase.CLIENT), False)
        own = r.send_for(pos(Phase.SCHED_BALLOT), True)
        foreign = BallotPayload(("vn", 99), 1, own.ballot)
        r.deliver_for(pos(Phase.SCHED_BALLOT), [foreign], False)
        assert r.core.color_of(1) is Color.RED  # nothing usable received

    def test_foreign_vetoes_ignored(self):
        r = make_replica()
        run = run_clean_round  # instance 1 cleanly...
        r.send_for(pos(Phase.CLIENT), False)
        own = r.send_for(pos(Phase.SCHED_BALLOT), True)
        r.deliver_for(pos(Phase.SCHED_BALLOT), [own], False)
        r.deliver_for(pos(Phase.SCHED_VETO1), [VetoPayload(("vn", 99), 1, 1)], False)
        r.deliver_for(pos(Phase.SCHED_VETO2), [], False)
        assert r.round_colors[0] is Color.GREEN


class TestUnscheduledPath:
    def test_ballot_only_in_own_slot(self):
        schedule = Schedule({0: 1}, length=3)  # our slot is 1
        r = ReplicaRuntime(SITE, SilentProgram(), schedule)
        r.send_for(pos(Phase.CLIENT, vr=0), False)
        # Virtual round 0: slot 0 is scheduled, we are not.
        assert r.send_for(pos(Phase.UNSCHED_BALLOT, vr=0, slot=0), True) is None
        payload = r.send_for(pos(Phase.UNSCHED_BALLOT, vr=0, slot=1), True)
        assert isinstance(payload, BallotPayload)
        assert r.send_for(pos(Phase.UNSCHED_BALLOT, vr=0, slot=2), True) is None

    def test_scheduled_vn_skips_unscheduled_phases(self):
        schedule = Schedule({0: 0}, length=2)
        r = ReplicaRuntime(SITE, SilentProgram(), schedule)
        r.send_for(pos(Phase.CLIENT, vr=0), False)
        # vr 0: we are scheduled -> no unscheduled ballot.
        assert r.send_for(pos(Phase.UNSCHED_BALLOT, vr=0, slot=0), True) is None


class TestJoinSupport:
    def test_join_activity_triggers_ack_conditions(self):
        r = make_replica()
        r.send_for(pos(Phase.CLIENT), False)
        r.deliver_for(pos(Phase.JOIN), [JoinRequest(0, 0)], False)
        ack = r.send_for(pos(Phase.JOIN_ACK), True)
        assert ack is not None and ack.vn_id == 0
        assert "k" in ack.snapshot

    def test_no_ack_without_activity(self):
        r = make_replica()
        r.send_for(pos(Phase.CLIENT), False)
        assert r.send_for(pos(Phase.JOIN_ACK), True) is None

    def test_no_ack_when_not_cm_active(self):
        r = make_replica()
        r.send_for(pos(Phase.CLIENT), False)
        r.deliver_for(pos(Phase.JOIN), [], True)  # collision counts
        assert r.send_for(pos(Phase.JOIN_ACK), False) is None

    def test_alive_ping_on_activity(self):
        r = make_replica()
        r.send_for(pos(Phase.CLIENT), False)
        r.deliver_for(pos(Phase.JOIN), [], True)
        ping = r.send_for(pos(Phase.RESET), False)
        assert ping is not None and ping.vn_id == 0

    def test_activity_resets_at_round_boundary(self):
        r = make_replica()
        r.send_for(pos(Phase.CLIENT), False)
        r.deliver_for(pos(Phase.JOIN), [JoinRequest(0, 0)], False)
        r.send_for(pos(Phase.CLIENT, vr=1), False)
        assert r.send_for(pos(Phase.RESET, vr=1), False) is None


class TestSnapshotAndReset:
    def test_snapshot_roundtrip_preserves_vn_state(self):
        r = make_replica()
        run_clean_round(r, 0, client_payloads=[("add", 7)])
        snap = r.core.snapshot()
        clone = ReplicaRuntime(SITE, CounterProgram(),
                               Schedule({0: 0}, length=1), snapshot=snap)
        assert clone.vn_state() == 7
        assert clone.core.k == 1

    def test_reset_anchors_fresh_state(self):
        r = ReplicaRuntime(SITE, CounterProgram(),
                           Schedule({0: 0}, length=1), reset_at=5)
        assert r.core.k == 5
        assert r.vn_state() == 0
        assert r.vn_message(5) == ("count", 0)

    def test_snapshot_and_reset_mutually_exclusive(self):
        with pytest.raises(ValueError):
            ReplicaRuntime(SITE, CounterProgram(),
                           Schedule({0: 0}, length=1),
                           snapshot={}, reset_at=1)


def folded_state(replica):
    """The virtual node's state through the fold: the checkpoint, then
    every suffix instance folded on top (what ``vn_state`` short-cuts
    when the suffix is empty)."""
    core = replica.core
    out = core.current_checkpoint_output()
    state = out.checkpoint_state
    for k in range(core.checkpoint_instance + 1, core.k + 1):
        state = replica._reduce(state, k, out.suffix(k))
    return state


def run_round(replica, vr, *, ballot_collision=False, veto2_collision=False):
    """One virtual round with one client add; ``ballot_collision`` makes
    the instance red, ``veto2_collision`` (alone) yellow."""
    replica.send_for(pos(Phase.CLIENT, vr), False)
    replica.deliver_for(pos(Phase.CLIENT, vr), [ClientMsg(vr, ("add", vr + 1))],
                        False)
    ballot = replica.send_for(pos(Phase.SCHED_BALLOT, vr), True)
    replica.deliver_for(pos(Phase.SCHED_BALLOT, vr), [ballot], ballot_collision)
    veto = replica.send_for(pos(Phase.SCHED_VETO1, vr), False)
    replica.deliver_for(pos(Phase.SCHED_VETO1, vr), [veto] if veto else [],
                        False)
    veto = replica.send_for(pos(Phase.SCHED_VETO2, vr), False)
    replica.deliver_for(pos(Phase.SCHED_VETO2, vr), [veto] if veto else [],
                        veto2_collision)


@pytest.mark.parametrize("switches", [Switches(), Switches(core=True)],
                         ids=["slotted", "dict"])
class TestVNStateShortcut:
    """With an empty suffix ``vn_state`` returns the checkpoint state
    itself; on both cores that equals the folded path, whichever colour
    the instances before it took, and after a reset or a restore."""

    def make(self, switches, **kwargs):
        return ReplicaRuntime(SITE, CounterProgram(),
                              Schedule({0: 0}, length=1), switches=switches,
                              **kwargs)

    def test_after_green_yellow_and_red_instances(self, switches):
        r = self.make(switches)
        shortcuts = []
        for vr, colour in enumerate(["green", "yellow", "green", "red",
                                     "red", "green", "yellow"]):
            run_round(r, vr, ballot_collision=colour == "red",
                      veto2_collision=colour == "yellow")
            assert r.round_colors[vr].name.lower() == colour
            shortcuts.append(r.core.checkpoint_instance == r.core.k)
            assert r.vn_state() == folded_state(r)
        # Both paths ran: the shortcut after a green instance, the fold
        # over a non-empty suffix after the others.
        assert shortcuts == [True, False, True, False, False, True, False]
        # Red instances adopt no ballot; yellow ones do (the last one in
        # the suffix).
        assert r.vn_state() == 1 + 2 + 3 + 6 + 7

    def test_after_reset_and_restore(self, switches):
        reborn = self.make(switches, reset_at=4)
        assert reborn.core.checkpoint_instance == reborn.core.k == 4
        assert reborn.vn_state() == folded_state(reborn) == 0
        source = self.make(switches)
        run_round(source, 0)
        run_round(source, 1, veto2_collision=True)
        for vr in (1, 2):
            clone = self.make(switches, snapshot=source.core.snapshot())
            assert clone.vn_state() == folded_state(clone) == source.vn_state()
            run_round(source, vr + 1)
