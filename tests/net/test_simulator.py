"""Integration tests for the synchronous round engine."""

import pytest

from repro.contention import FixedLeaderCM, LeaderElectionCM
from repro.detectors import PerfectDetector
from repro.errors import ConfigurationError, SimulationError
from repro.geometry import Point
from repro.net import (
    Crash,
    CrashPoint,
    CrashSchedule,
    Ensemble,
    LinearMobility,
    Process,
    RadioSpec,
    Simulator,
)


class Chatter(Process):
    """Broadcasts a tagged payload every round and logs receptions."""

    def __init__(self, label, cm_name=None):
        self.label = label
        self.cm_name = cm_name
        self.received: list[tuple[int, tuple, bool]] = []
        self.advice: list[bool] = []

    def contend(self, r):
        return self.cm_name

    def send(self, r, active):
        self.advice.append(active)
        if self.cm_name is not None and not active:
            return None
        return f"{self.label}@{r}"

    def deliver(self, r, messages, collision):
        self.received.append((r, tuple(m.payload for m in messages), collision))


class Listener(Process):
    def __init__(self):
        self.received: list[tuple[int, tuple, bool]] = []

    def send(self, r, active):
        return None

    def deliver(self, r, messages, collision):
        self.received.append((r, tuple(m.payload for m in messages), collision))


def make_sim(**kwargs):
    defaults = dict(spec=RadioSpec(r1=1.0, r2=2.0))
    defaults.update(kwargs)
    return Simulator(**defaults)


class TestBasics:
    def test_single_broadcaster_delivers(self):
        sim = make_sim()
        sim.add_node(Chatter("a"), Point(0, 0))
        listener = Listener()
        sim.add_node(listener, Point(0.5, 0))
        sim.run(3)
        assert listener.received == [
            (0, ("a@0",), False), (1, ("a@1",), False), (2, ("a@2",), False),
        ]

    def test_two_broadcasters_collide(self):
        sim = make_sim()
        sim.add_node(Chatter("a"), Point(0, 0))
        sim.add_node(Chatter("b"), Point(0.2, 0))
        listener = Listener()
        sim.add_node(listener, Point(0.5, 0))
        sim.run(1)
        assert listener.received == [(0, (), True)]

    def test_trace_records_broadcasts(self):
        sim = make_sim()
        sim.add_node(Chatter("a"), Point(0, 0))
        trace = sim.run(2)
        assert trace.total_broadcasts() == 2
        assert trace[0].broadcasts[0].payload == "a@0"

    def test_run_returns_cumulative_trace(self):
        sim = make_sim()
        sim.add_node(Chatter("a"), Point(0, 0))
        sim.run(2)
        trace = sim.run(3)
        assert len(trace) == 5

    def test_negative_rounds_rejected(self):
        with pytest.raises(ConfigurationError):
            make_sim().run(-1)


class TestContentionWiring:
    def test_advice_reaches_contenders(self):
        cm = FixedLeaderCM(leader=1)
        sim = make_sim(cms={"C": cm})
        a, b = Chatter("a", "C"), Chatter("b", "C")
        sim.add_node(a, Point(0, 0))
        sim.add_node(b, Point(0.2, 0))
        listener = Listener()
        sim.add_node(listener, Point(0.5, 0))
        sim.run(2)
        assert a.advice == [False, False]
        assert b.advice == [True, True]
        assert [m for _, m, _ in listener.received] == [("b@0",), ("b@1",)]

    def test_unknown_cm_raises(self):
        sim = make_sim()
        sim.add_node(Chatter("a", "nope"), Point(0, 0))
        with pytest.raises(SimulationError):
            sim.run(1)

    def test_advice_clipped_to_contenders(self):
        # The CM tries to advise node 7, which never contends.
        cm = FixedLeaderCM(leader=7)
        sim = make_sim(cms={"C": cm})
        a = Chatter("a", "C")
        sim.add_node(a, Point(0, 0))
        sim.run(1)
        assert a.advice == [False]

    def test_add_cm_after_construction(self):
        sim = make_sim()
        sim.add_cm("C", LeaderElectionCM())
        a = Chatter("a", "C")
        sim.add_node(a, Point(0, 0))
        sim.run(1)
        assert a.advice == [True]

    def test_duplicate_cm_rejected(self):
        sim = make_sim(cms={"C": LeaderElectionCM()})
        with pytest.raises(ConfigurationError):
            sim.add_cm("C", LeaderElectionCM())


class TestCrashes:
    def test_before_send_crash_silences_node(self):
        crashes = CrashSchedule([Crash(0, 1, CrashPoint.BEFORE_SEND)])
        sim = make_sim(crashes=crashes)
        sim.add_node(Chatter("a"), Point(0, 0))
        listener = Listener()
        sim.add_node(listener, Point(0.5, 0))
        sim.run(3)
        assert [m for _, m, _ in listener.received] == [("a@0",), (), ()]

    def test_after_send_crash_broadcasts_once_more(self):
        crashes = CrashSchedule([Crash(0, 1, CrashPoint.AFTER_SEND)])
        sim = make_sim(crashes=crashes)
        chatter = Chatter("a")
        sim.add_node(chatter, Point(0, 0))
        listener = Listener()
        sim.add_node(listener, Point(0.5, 0))
        sim.run(3)
        assert [m for _, m, _ in listener.received] == [("a@0",), ("a@1",), ()]
        # The crashing node never saw round 1's receptions.
        assert [r for r, _, _ in chatter.received] == [0]

    def test_crashed_node_does_not_interfere(self):
        crashes = CrashSchedule.of({1: 1})
        sim = make_sim(crashes=crashes)
        sim.add_node(Chatter("a"), Point(0, 0))
        sim.add_node(Chatter("b"), Point(0.2, 0))
        listener = Listener()
        sim.add_node(listener, Point(0.5, 0))
        sim.run(2)
        # Round 0: both broadcast -> collision.  Round 1: b gone -> clean.
        assert listener.received[0] == (0, (), True)
        assert listener.received[1] == (1, ("a@1",), False)

    def test_alive_reflects_crashes(self):
        crashes = CrashSchedule.of({0: 2})
        sim = make_sim(crashes=crashes)
        sim.add_node(Chatter("a"), Point(0, 0))
        sim.run(3)
        assert not sim.alive(0)
        assert sim.alive(0, 1)

    def test_crash_recorded_in_trace(self):
        crashes = CrashSchedule.of({0: 1})
        sim = make_sim(crashes=crashes)
        sim.add_node(Chatter("a"), Point(0, 0))
        trace = sim.run(2)
        assert 0 in trace[0].crashed
        assert 0 not in trace[1].crashed


class TestDormantNodes:
    def test_late_start_node_silent_then_active(self):
        sim = make_sim()
        sim.add_node(Chatter("late"), Point(0, 0), start_round=2)
        listener = Listener()
        sim.add_node(listener, Point(0.5, 0))
        sim.run(4)
        assert [m for _, m, _ in listener.received] == [
            (), (), ("late@2",), ("late@3",),
        ]

    def test_dormant_node_receives_nothing(self):
        sim = make_sim()
        late = Listener()
        sim.add_node(late, Point(0.5, 0), start_round=2)
        sim.add_node(Chatter("a"), Point(0, 0))
        sim.run(4)
        assert [r for r, _, _ in late.received] == [2, 3]

    def test_negative_start_round_rejected(self):
        sim = make_sim()
        with pytest.raises(ConfigurationError):
            sim.add_node(Listener(), Point(0, 0), start_round=-1)


class TestMobilityIntegration:
    def test_node_moves_out_of_range(self):
        sim = make_sim()
        sim.add_node(Chatter("a"), LinearMobility(Point(0, 0), Point(1.5, 0)))
        listener = Listener()
        sim.add_node(listener, Point(0, 0.5))
        sim.run(3)
        # Round 0: distance 0.5 (hear).  Round 1: ~1.58 within R2=2: silence
        # with an R2 loss -> collision indication.  Round 2: beyond R2.
        assert listener.received[0][1] == ("a@0",)
        assert listener.received[1] == (1, (), True)
        assert listener.received[2] == (2, (), False)

    def test_location_service_updated(self):
        sim = make_sim()
        sim.add_node(Chatter("a"), LinearMobility(Point(0, 0), Point(1, 0)))
        sim.run(3)
        assert sim.locations.locate(0) == Point(2, 0)


class TestDetectorWiring:
    def test_perfect_detector_ignores_r2_ring_loss(self):
        sim = make_sim(detector=PerfectDetector())
        sim.add_node(Chatter("a"), Point(0, 0))
        listener = Listener()
        sim.add_node(listener, Point(1.5, 0))  # in the R1..R2 ring
        sim.run(1)
        assert listener.received == [(0, (), False)]

    def test_default_detector_reports_r2_ring_loss(self):
        sim = make_sim()
        sim.add_node(Chatter("a"), Point(0, 0))
        listener = Listener()
        sim.add_node(listener, Point(1.5, 0))
        sim.run(1)
        assert listener.received == [(0, (), True)]


class TestMidRunJoin:
    """Mid-run ``add_node`` seams: past start rounds and grid occupancy."""

    def test_past_start_round_rejected_on_running_world(self):
        sim = make_sim()
        sim.add_node(Chatter("a"), Point(0, 0))
        sim.run(3)
        with pytest.raises(ConfigurationError):
            sim.add_node(Listener(), Point(0.5, 0), start_round=2)

    def test_start_round_at_current_round_accepted(self):
        sim = make_sim()
        sim.add_node(Chatter("a"), Point(0, 0))
        sim.run(3)
        listener = Listener()
        node = sim.add_node(listener, Point(0.5, 0), start_round=3)
        sim.run(1)
        assert sim.alive(node, 3)
        assert listener.received == [(3, ("a@3",), False)]

    def test_valid_late_join_hears_from_start_round(self):
        sim = make_sim()
        sim.add_node(Chatter("a"), Point(0, 0))
        sim.run(2)
        listener = Listener()
        sim.add_node(listener, Point(0.5, 0), start_round=4)
        sim.run(4)
        # Dormant through rounds 2-3, hears rounds 4-5.
        assert listener.received == [(4, ("a@4",), False), (5, ("a@5",), False)]

    def test_future_start_node_never_buckets_in_grid(self):
        """A registered-but-unpowered node must not occupy a grid cell.

        The paper's late-start contract: the node "neither transmits,
        receives, nor interferes earlier" — so before its start round it
        must be invisible to the spatial index, even when registered
        mid-run straight into a dense cell.
        """
        sim = make_sim()
        # Dense cell: everyone within one R2-sized bucket.
        for k in range(6):
            sim.add_node(Chatter(f"n{k}"), Point(0.1 * k, 0))
        sim.run(2)
        listener = Listener()
        joiner = sim.add_node(listener, Point(0.05, 0.05), start_round=5)
        for r in range(2, 5):
            sim.step()
            assert joiner not in sim.channel._index, (
                f"dormant node bucketed at round {r}"
            )
        sim.step()  # round 5: powered on
        assert joiner in sim.channel._index
        # Six simultaneous chatters collide; the joiner still observes the
        # round (a collision flag), proving it receives only once present.
        assert [r for r, _, _ in listener.received] == [5]


class _Echo(Process):
    def send(self, r, active):
        return None

    def deliver(self, r, messages, collision):
        pass


class _Nobody(Ensemble):
    def __init__(self, processes):
        self.processes = processes
        self.nodes = None

    def contend(self, r):
        return None

    def send_round(self, r, members, advised):
        return []

    def deliver_round(self, r, members, delivered, flags, batch):
        pass


def _three_nodes():
    sim = Simulator(spec=RadioSpec(r1=1.0, r2=1.5))
    procs = [_Echo() for _ in range(4)]     # the fourth is never registered
    for i, proc in enumerate(procs[:3]):
        sim.add_node(proc, Point(0.1 * i, 0.0))
    return sim, procs


def test_add_ensemble_sets_the_ids_it_finds_the_processes_at():
    sim, procs = _three_nodes()
    ensemble = _Nobody(procs[1:3])
    sim.add_ensemble(ensemble)
    assert ensemble.nodes == range(1, 3)


@pytest.mark.parametrize("picks", [[], [1, 0], [0, 2], [2, 3], [3], [0, 1]])
def test_add_ensemble_refuses_a_run_that_is_not_contiguous_and_free(picks):
    sim, procs = _three_nodes()
    sim.add_ensemble(_Nobody([procs[0]]))
    with pytest.raises(ConfigurationError):
        sim.add_ensemble(_Nobody([procs[i] for i in picks]))
