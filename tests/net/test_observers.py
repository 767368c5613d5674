"""The simulator's per-round observer hook and trace-retention switch."""

from repro.core import CHAProcess, ROUNDS_PER_INSTANCE
from repro.core.ballot import VetoPayload
from repro.contention import LeaderElectionCM
from repro.experiment import WireStatsObserver
from repro.net import RadioSpec, RandomLossAdversary, Simulator
from repro.net.trace import RoundRecord
from repro.geometry import Point


def build_sim(n=3, rcf=0, **kwargs):
    sim = Simulator(spec=RadioSpec(r1=1.0, r2=1.5, rcf=rcf),
                    cms={"C": LeaderElectionCM(stable_round=0)}, **kwargs)
    for i in range(n):
        sim.add_node(CHAProcess(propose=lambda k, i=i: f"v{i}.{k}",
                                cm_name="C"),
                     Point(0.05 * i, 0.0))
    return sim


class TestObserverHook:
    def test_observer_sees_every_round_record(self):
        seen = []
        sim = build_sim(observers=[seen.append])
        sim.run(2 * ROUNDS_PER_INSTANCE)
        assert [rec.round for rec in seen] == list(range(6))
        assert all(isinstance(rec, RoundRecord) for rec in seen)

    def test_add_observer_after_construction(self):
        sim = build_sim()
        seen = []
        sim.run(3)
        sim.add_observer(seen.append)
        sim.run(3)
        assert [rec.round for rec in seen] == [3, 4, 5]

    def test_observer_records_match_trace(self):
        seen = []
        sim = build_sim(observers=[seen.append])
        sim.run(6)
        assert seen == list(sim.trace)


class TestRecordTraceSwitch:
    def test_record_trace_false_keeps_trace_empty(self):
        sim = build_sim(record_trace=False)
        sim.run(6)
        assert len(sim.trace) == 0
        assert sim.current_round == 6

    def test_observers_fire_without_trace(self):
        wire = WireStatsObserver()
        sim = build_sim(record_trace=False, observers=[wire])
        sim.run(2 * ROUNDS_PER_INSTANCE)
        assert wire.rounds == 6
        assert wire.total_broadcasts > 0
        assert wire.max_message_size > 0

    def test_wire_stats_equal_trace_derived_stats(self):
        wire = WireStatsObserver()
        sim = build_sim(observers=[wire])
        sim.run(9)
        assert wire.total_broadcasts == sim.trace.total_broadcasts()
        assert wire.max_message_size == sim.trace.max_message_size()
        assert wire.mean_message_size == sim.trace.mean_message_size()

    def test_wire_stats_equal_trace_derived_stats_on_a_lossy_world(self):
        """Before ``rcf`` several nodes veto in one round: one shared
        payload, sized once, still counts once per broadcast."""
        wire = WireStatsObserver()
        sim = build_sim(n=6, rcf=12, observers=[wire],
                        adversary=RandomLossAdversary(p_drop=0.4, seed=4))
        sim.run(18)
        assert max(sum(isinstance(m.payload, VetoPayload)
                       for m in record.broadcasts.values())
                   for record in sim.trace) >= 3
        assert wire.total_broadcasts == sim.trace.total_broadcasts()
        assert wire.max_message_size == sim.trace.max_message_size()
        assert wire.mean_message_size == sim.trace.mean_message_size()

    def test_collision_flags_count_only_the_rounds_that_raise_them(self):
        """Flags fire in some rounds only: the counts (and their node
        order, first flagged first) match a walk over every round."""
        rounds = [{0: False, 1: False, 2: False}, {0: False, 1: True, 2: False},
                  {0: False, 1: False, 2: False}, {0: True, 1: True, 2: False},
                  {}, {2: True}]
        wire = WireStatsObserver()
        expected: dict[int, int] = {}
        for r, flags in enumerate(rounds):
            wire(RoundRecord(round=r, positions={}, broadcasts={},
                             receptions={}, collisions=flags,
                             advised_active=frozenset(), crashed=frozenset()))
            for node, flag in flags.items():
                if flag:
                    expected[node] = expected.get(node, 0) + 1
        assert wire.collision_flags == expected == {1: 2, 0: 1, 2: 1}
        assert list(wire.collision_flags) == [1, 0, 2]
        assert wire.rounds == len(rounds)
