"""Tests for the tracking service over a virtual-node line."""

from repro.apps import TargetClient, TrackerProgram, estimate_position, last_seen_map
from repro.geometry import Point
from repro.net import WaypointMobility
from repro.vi import VIWorld, VirtualObservation
from repro.workloads import vn_line


class TestTrackerProgram:
    def test_records_announcements(self):
        p = TrackerProgram()
        s = p.step(p.init_state(), 5,
                   VirtualObservation((("cl", ("here", "t1")),), False))
        assert s == (("t1", 5),)

    def test_latest_round_kept(self):
        p = TrackerProgram()
        s = p.step((("t1", 2),), 7,
                   VirtualObservation((("cl", ("here", "t1")),), False))
        assert s == (("t1", 7),)

    def test_emit_most_recent(self):
        p = TrackerProgram()
        assert p.emit((("a", 3), ("b", 9)), 10) == ("seen", "b", 9)

    def test_silent_when_empty(self):
        p = TrackerProgram()
        assert p.emit((), 0) is None


class TestTargetClient:
    def test_period_one_announces_every_round(self):
        t = TargetClient("t", period=1)
        assert t.on_round(0, VirtualObservation((), False)) == ("here", "t")

    def test_period_three(self):
        t = TargetClient("t", period=3)
        outs = [t.on_round(vr, VirtualObservation((), False)) for vr in range(6)]
        assert outs == [None, None, ("here", "t"), None, None, ("here", "t")]


class TestEndToEndTracking:
    def make_world(self):
        sites, devices = vn_line(3, spacing=0.5, replicas_per_vn=2)
        world = VIWorld(sites, {s.vn_id: TrackerProgram() for s in sites})
        for pos in devices:
            world.add_device(pos)
        return world, sites

    def test_static_target_located_at_nearest_vn(self):
        world, sites = self.make_world()
        target = TargetClient("tgt", period=1)
        world.add_device(Point(0.0, 0.4), client=target, initially_active=False)
        world.run_virtual_rounds(8)
        seen = last_seen_map(world, "tgt")
        assert 0 in seen
        estimate = estimate_position(world, "tgt")
        assert estimate is not None

    def test_moving_target_hands_off_across_vns(self):
        world, sites = self.make_world()
        target = TargetClient("tgt", period=1)
        # Walks along the corridor from VN0's area to VN2's, outside the
        # emulation regions (stays a pure client).
        # Walks past the last virtual node, leaving VN1's radio range so
        # the final fix is unambiguous.
        world.add_device(
            WaypointMobility(Point(0.0, 0.45), [Point(1.6, 0.45)], speed=0.02),
            client=target, initially_active=False,
        )
        world.run_virtual_rounds(40)
        seen = last_seen_map(world, "tgt")
        assert set(seen) == {0, 1, 2}, f"target never crossed: {seen}"
        # The freshest record belongs to the last virtual node.
        assert max(seen, key=lambda vn: seen[vn]) == 2
        final = estimate_position(world, "tgt")
        assert final == sites[2].location

    def test_unknown_target(self):
        world, _ = self.make_world()
        world.run_virtual_rounds(3)
        assert last_seen_map(world, "ghost") == {}
        assert estimate_position(world, "ghost") is None
