"""Integration tests for the join / join-ack / reset sub-protocol (§4.3)."""

import math

from repro.geometry import Point
from repro.net import CrashSchedule, StaticMobility, WaypointMobility
from repro.vi import CounterProgram, JoinState, ScriptedClient, SilentProgram, VIWorld, VNSite


def walker_to(target, *, start=Point(0, 3), speed=0.05):
    return WaypointMobility(start, [target], speed=speed)


def make_world(program=None, n_replicas=2, **kwargs):
    sites = [VNSite(0, Point(0, 0))]
    world = VIWorld(sites, {0: program or CounterProgram()}, **kwargs)
    for i in range(n_replicas):
        angle = 2 * math.pi * i / max(n_replicas, 1)
        world.add_device(Point(0.15 * math.cos(angle), 0.15 * math.sin(angle)))
    return world


class TestJoin:
    def test_newcomer_joins_live_vn(self):
        world = make_world()
        newbie = world.add_device(walker_to(Point(0, 0.05)),
                                  initially_active=False)
        world.run_virtual_rounds(14)
        assert newbie in world.replicas_of(0)
        events = [evt for _, evt in world.devices[newbie].events]
        assert "join-req:0" in events and "acked:0" in events

    def test_joined_replica_carries_transferred_state(self):
        world = make_world()
        client = ScriptedClient({1: ("add", 42)})
        world.add_device(Point(0.4, 0), client=client, initially_active=False)
        newbie = world.add_device(walker_to(Point(0, 0.05)),
                                  initially_active=False)
        world.run_virtual_rounds(16)
        states = world.vn_states(0)
        assert newbie in states
        assert states[newbie] == 42
        world.check_replica_consistency(0)

    def test_two_simultaneous_joiners_both_succeed(self):
        world = make_world()
        a = world.add_device(walker_to(Point(0, 0.05), start=Point(0, 2)),
                             initially_active=False)
        b = world.add_device(walker_to(Point(0.05, 0), start=Point(2, 0)),
                             initially_active=False)
        world.run_virtual_rounds(16)
        # Their join requests collide, but the ack (triggered by the
        # detected collision) reaches both.
        assert a in world.replicas_of(0)
        assert b in world.replicas_of(0)
        world.check_replica_consistency(0)

    def test_join_only_in_scheduled_virtual_rounds(self):
        # Schedule length 2: VN 0 is scheduled every other virtual round.
        sites = [VNSite(0, Point(0, 0)), VNSite(1, Point(1.0, 0))]
        world = VIWorld(sites, {0: SilentProgram(), 1: SilentProgram()})
        world.add_device(Point(0.1, 0))
        world.add_device(Point(1.1, 0))
        newbie = world.add_device(walker_to(Point(0, 0.05)),
                                  initially_active=False)
        world.run_virtual_rounds(20)
        join_rounds = [
            vr for vr, evt in world.devices[newbie].events
            if evt == "join-req:0"
        ]
        assert join_rounds
        assert all(world.schedule.is_scheduled(0, vr) for vr in join_rounds)

    def test_late_device_in_region_from_start_round_joins(self):
        world = make_world()
        clock = world.clock
        late = world.add_device(
            StaticMobility(Point(0.05, 0.05)),
            start_round=clock.rounds_for(3),
            initially_active=False,
        )
        world.run_virtual_rounds(12)
        assert late in world.replicas_of(0)


class TestReset:
    def test_reset_revives_dead_vn_with_initial_state(self):
        rpv = 13  # single site -> schedule length 1
        world = make_world(
            crashes=CrashSchedule.of({0: 3 * rpv, 1: 3 * rpv}),
        )
        client = ScriptedClient({1: ("add", 9)})
        world.add_device(Point(0.4, 0), client=client, initially_active=False)
        newbie = world.add_device(walker_to(Point(0, 0.05)),
                                  initially_active=False)
        world.run_virtual_rounds(16)
        assert newbie in world.replicas_of(0)
        events = [evt for _, evt in world.devices[newbie].events]
        assert "reset:0" in events
        # State was lost with the crash: the counter restarts from 0.
        assert world.vn_states(0)[newbie] == 0

    def test_no_reset_while_vn_alive(self):
        world = make_world()
        newbie = world.add_device(walker_to(Point(0, 0.05)),
                                  initially_active=False)
        world.run_virtual_rounds(16)
        events = [evt for _, evt in world.devices[newbie].events]
        assert "reset:0" not in events

    def test_reset_vn_resumes_full_service(self):
        rpv = 13
        world = make_world(crashes=CrashSchedule.of({0: 2 * rpv, 1: 2 * rpv}))
        newbie = world.add_device(walker_to(Point(0, 0.05)),
                                  initially_active=False)
        late_client = ScriptedClient({12: ("add", 4)})
        world.add_device(Point(0.4, 0), client=late_client,
                         initially_active=False)
        world.run_virtual_rounds(16)
        assert world.vn_states(0)[newbie] == 4
        tail = world.outcomes[0][-3:]
        assert all(o.live for o in tail)

    def test_two_joiners_reset_consistently(self):
        rpv = 13
        world = make_world(crashes=CrashSchedule.of({0: 2 * rpv, 1: 2 * rpv}))
        a = world.add_device(walker_to(Point(0, 0.05), start=Point(0, 2)),
                             initially_active=False)
        b = world.add_device(walker_to(Point(0.05, 0), start=Point(2, 0)),
                             initially_active=False)
        world.run_virtual_rounds(18)
        replicas = world.replicas_of(0)
        assert a in replicas and b in replicas
        world.check_replica_consistency(0)
        assert len(set(world.vn_states(0).values())) == 1


class TestJoinStateMachine:
    def test_out_of_region_device_stays_idle(self):
        world = make_world()
        idle = world.add_device(Point(10, 10), initially_active=False)
        world.run_virtual_rounds(6)
        device = world.devices[idle]
        assert device.replica is None
        assert device._join_state is JoinState.IDLE
        assert device.events == []

    def test_walker_through_region_abandons_join(self):
        # Walks straight through the region fast enough to exit before
        # a join can complete (region diameter 0.5, speed 0.25/round,
        # 13 rounds/virtual-round -> inside for less than one boundary).
        world = make_world()
        through = world.add_device(
            WaypointMobility(Point(0, 2), [Point(0, -2)], speed=0.3),
            initially_active=False,
        )
        world.run_virtual_rounds(10)
        device = world.devices[through]
        assert device.replica is None
        assert device._join_state is JoinState.IDLE
