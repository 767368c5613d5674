"""Integration tests for the full virtual-infrastructure emulation.

Covers: single-VN emulation, client interaction, replica consistency,
virtual-node-to-virtual-node communication, constant per-virtual-round
overhead, and behaviour under crashes and adversarial channels.
"""

import math

from repro.detectors import EventuallyAccurateDetector
from repro.geometry import Point
from repro.net import CrashSchedule, RandomLossAdversary, WaypointMobility
from repro.vi import (
    CounterProgram,
    ScriptedClient,
    SilentClient,
    SilentProgram,
    VIWorld,
    VNSite,
)


def ring_positions(center, radius, n):
    return [
        Point(center.x + radius * math.cos(2 * math.pi * i / n),
              center.y + radius * math.sin(2 * math.pi * i / n))
        for i in range(n)
    ]


def single_vn_world(program=None, n_replicas=3, **kwargs):
    sites = [VNSite(0, Point(0, 0))]
    world = VIWorld(sites, {0: program or CounterProgram()}, **kwargs)
    for pos in ring_positions(Point(0, 0), 0.2, n_replicas):
        world.add_device(pos)
    return world


class TestSingleVirtualNode:
    def test_full_availability_in_stable_world(self):
        world = single_vn_world()
        world.run_virtual_rounds(10)
        assert world.availability(0) == 1.0

    def test_replica_states_agree(self):
        world = single_vn_world(program=SilentProgram())
        world.run_virtual_rounds(8)
        states = set(world.vn_states(0).values())
        assert states == {8}
        world.check_replica_consistency(0)

    def test_client_messages_reach_the_virtual_node(self):
        world = single_vn_world()
        client = ScriptedClient({1: ("add", 10), 4: ("add", 5)})
        world.add_device(Point(0.4, 0), client=client, initially_active=False)
        world.run_virtual_rounds(8)
        assert set(world.vn_states(0).values()) == {15}

    def test_vn_broadcasts_reach_clients(self):
        world = single_vn_world()
        listener = SilentClient()
        world.add_device(Point(0, 0.4), client=listener, initially_active=False)
        world.run_virtual_rounds(4)
        vn_payloads = [
            item for _, obs in listener.heard for item in obs.messages
            if item[0] == "vn"
        ]
        assert ("vn", 0, ("count", 0)) in vn_payloads

    def test_two_clients_same_round_collide_virtually(self):
        world = single_vn_world()
        a = ScriptedClient({2: ("add", 1)})
        b = ScriptedClient({2: ("add", 2)})
        world.add_device(Point(0.4, 0), client=a, initially_active=False)
        world.add_device(Point(-0.4, 0), client=b, initially_active=False)
        world.run_virtual_rounds(6)
        # Both clients transmitted in the same CLIENT phase: genuine
        # collision; the counter must not have absorbed either value.
        assert set(world.vn_states(0).values()) == {0}

    def test_clients_in_different_rounds_both_land(self):
        world = single_vn_world()
        a = ScriptedClient({2: ("add", 1)})
        b = ScriptedClient({3: ("add", 2)})
        world.add_device(Point(0.4, 0), client=a, initially_active=False)
        world.add_device(Point(-0.4, 0), client=b, initially_active=False)
        world.run_virtual_rounds(6)
        assert set(world.vn_states(0).values()) == {3}

    def test_single_replica_still_emulates(self):
        world = single_vn_world(n_replicas=1)
        world.run_virtual_rounds(5)
        assert world.availability(0) == 1.0


class TestOverheadTheorem:
    def test_rounds_per_virtual_round_independent_of_replicas(self):
        worlds = [single_vn_world(n_replicas=n) for n in (1, 4, 8)]
        assert len({w.clock.rounds_per_virtual_round for w in worlds}) == 1

    def test_rounds_per_virtual_round_depends_on_density(self):
        sparse = VIWorld(
            [VNSite(0, Point(0, 0)), VNSite(1, Point(50, 0))],
            {0: SilentProgram(), 1: SilentProgram()},
        )
        dense = VIWorld(
            [VNSite(0, Point(0, 0)), VNSite(1, Point(1.0, 0))],
            {0: SilentProgram(), 1: SilentProgram()},
        )
        assert sparse.clock.rounds_per_virtual_round == 13
        assert dense.clock.rounds_per_virtual_round == 14

    def test_emulation_messages_constant_size(self):
        world = single_vn_world(program=SilentProgram())
        world.run_virtual_rounds(30)
        # No join traffic, silent program: all messages are CHA payloads
        # of constant size regardless of execution length.
        sizes = world.sim.trace.message_sizes()
        assert len(set(sizes)) <= 3  # ballot / veto variants
        assert max(sizes) == max(sizes[:len(sizes) // 3])


class RecorderProgram(SilentProgram):
    """A virtual node whose state is everything it ever observed."""

    def init_state(self):
        return ()

    def step(self, state, vr, observation):
        return state + tuple(observation.messages)


class TestInterVNCommunication:
    def test_recorder_vn_hears_counter_vn(self):
        # Two VNs 0.5 apart: within each other's emergent virtual range.
        sites = [VNSite(0, Point(0, 0)), VNSite(1, Point(0.5, 0))]
        world = VIWorld(sites, {0: CounterProgram(), 1: RecorderProgram()})
        for pos in ring_positions(Point(0, 0), 0.1, 2):
            world.add_device(pos)
        for pos in ring_positions(Point(0.5, 0), 0.1, 2):
            world.add_device(pos)
        world.run_virtual_rounds(8)
        world.check_replica_consistency(0)
        world.check_replica_consistency(1)
        state = next(iter(world.vn_states(1).values()))
        seen_counter = [item for item in state if item[0] == "vn" and item[1] == 0]
        assert seen_counter
        assert seen_counter[0][2] == ("count", 0)

    def test_far_vns_do_not_hear_each_other(self):
        sites = [VNSite(0, Point(0, 0)), VNSite(1, Point(30, 0))]
        world = VIWorld(sites, {0: CounterProgram(), 1: RecorderProgram()})
        world.add_device(Point(0.1, 0))
        world.add_device(Point(30.1, 0))
        world.run_virtual_rounds(6)
        state = next(iter(world.vn_states(1).values()))
        assert not any(item[0] == "vn" and item[1] == 0 for item in state)

    def test_same_slot_vns_run_simultaneously_without_interference(self):
        # Far apart -> same slot -> both scheduled every virtual round.
        sites = [VNSite(0, Point(0, 0)), VNSite(1, Point(50, 0))]
        world = VIWorld(sites, {0: SilentProgram(), 1: SilentProgram()})
        world.add_device(Point(0.1, 0))
        world.add_device(Point(50.1, 0))
        world.run_virtual_rounds(6)
        assert world.schedule.length == 1
        assert world.availability(0) == 1.0
        assert world.availability(1) == 1.0


class TestCrashesAndChurn:
    def test_emulation_survives_minority_crash(self):
        world = single_vn_world(n_replicas=3, crashes=CrashSchedule.of({0: 30}))
        world.run_virtual_rounds(10)
        assert world.availability(0) > 0.8
        world.check_replica_consistency(0)

    def test_vn_dies_with_all_replicas(self):
        world = single_vn_world(n_replicas=2,
                                crashes=CrashSchedule.of({0: 26, 1: 26}))
        world.run_virtual_rounds(8)
        # Virtual rounds after the crash have no emulators at all.
        assert world.emulation_gaps(0) >= 5
        assert world.availability(0) < 1.0

    def test_replica_leaving_region_stops_emulating(self):
        sites = [VNSite(0, Point(0, 0))]
        world = VIWorld(sites, {0: SilentProgram()})
        world.add_device(Point(0.1, 0))
        walker = world.add_device(
            WaypointMobility(Point(0.1, 0.1), [Point(5, 5)], speed=0.2),
        )
        world.run_virtual_rounds(6)
        assert walker not in world.replicas_of(0)
        assert any(evt.startswith("left:") for _, evt in world.devices[walker].events)
        world.check_replica_consistency(0)


class TestAdversarialEmulation:
    def test_consistency_under_lossy_channel(self):
        world = single_vn_world(
            n_replicas=4,
            adversary=RandomLossAdversary(p_drop=0.3, p_false=0.2, seed=5),
            detector=EventuallyAccurateDetector(racc=70),
            rcf=70,
            cm_stable_round=70,
        )
        client = ScriptedClient({vr: ("add", 1) for vr in range(2, 20, 3)})
        world.add_device(Point(0.4, 0), client=client, initially_active=False)
        world.run_virtual_rounds(20)
        world.check_replica_consistency(0)
        # After stabilisation (round 70 = virtual round ~5) the node runs.
        tail = world.outcomes[0][8:]
        assert all(o.live for o in tail)

    def test_availability_degrades_but_recovers(self):
        world = single_vn_world(
            n_replicas=3,
            adversary=RandomLossAdversary(p_drop=0.6, p_false=0.4, seed=9),
            detector=EventuallyAccurateDetector(racc=90),
            rcf=90,
            cm_stable_round=90,
        )
        world.run_virtual_rounds(16)
        pre = [o.live for o in world.outcomes[0][:6]]
        post = [o.live for o in world.outcomes[0][9:]]
        assert all(post), "stabilised tail must be fully live"
        world.check_replica_consistency(0)
