"""Tests for virtual-node overlay routing."""

import random

import pytest

from repro.apps import (
    DeliveringMailboxProgram,
    ReceiverClient,
    SenderClient,
    build_routing_programs,
    overlay_graph,
)
from repro.geometry import GridSpec, Point
from repro.vi import VIWorld, VNSite, VirtualObservation
from repro.workloads import vn_line


class TestOverlayGraph:
    def test_adjacent_sites_linked(self):
        sites, _ = vn_line(3, spacing=0.5)
        g = overlay_graph(sites, virtual_range=0.5)
        assert 1 in g[0] and 2 in g[1]
        assert 2 not in g[0]

    def test_keys_and_neighbours_in_site_order(self):
        sites = [VNSite(vn_id, Point(x, 0.0))
                 for vn_id, x in ((5, 0.0), (1, 0.4), (3, 0.8), (0, 5.0))]
        assert list(overlay_graph(sites, virtual_range=0.5).items()) == [
            (5, [1]), (1, [5, 3]), (3, [1]), (0, [])]

    def test_next_hop_tables_point_along_shortest_paths(self):
        sites, _ = vn_line(4, spacing=0.5)
        programs = build_routing_programs(sites, virtual_range=0.5)
        assert programs[0].next_hop[3] == 1
        assert programs[1].next_hop[3] == 2
        assert programs[2].next_hop[0] == 1

    def test_unreachable_destinations_absent(self):
        sites = [VNSite(0, Point(0, 0)), VNSite(1, Point(100, 0))]
        programs = build_routing_programs(sites, virtual_range=0.5)
        assert programs[0].next_hop == {}

    def test_equal_length_paths_break_ties_in_site_order(self):
        # A 3x3 lattice at the virtual range: every corner-to-corner route
        # has equal-length alternatives; the BFS takes the neighbour that
        # comes first in site order (ids run row by row, x fastest).
        grid = GridSpec(rows=3, cols=3, spacing=0.5)
        sites = [VNSite(i, p) for i, p in enumerate(grid.sites())]
        programs = build_routing_programs(sites, virtual_range=0.5)
        assert {vn: list(p.next_hop.items()) for vn, p in programs.items()} == {
            0: [(1, 1), (3, 3), (2, 1), (4, 1), (6, 3), (5, 1), (7, 1), (8, 1)],
            1: [(0, 0), (2, 2), (4, 4), (3, 0), (5, 2), (7, 4), (6, 0), (8, 2)],
            2: [(1, 1), (5, 5), (0, 1), (4, 1), (8, 5), (3, 1), (7, 1), (6, 1)],
            3: [(0, 0), (4, 4), (6, 6), (1, 0), (5, 4), (7, 4), (2, 0), (8, 4)],
            4: [(1, 1), (3, 3), (5, 5), (7, 7), (0, 1), (2, 1), (6, 3), (8, 5)],
            5: [(2, 2), (4, 4), (8, 8), (1, 2), (3, 4), (7, 4), (0, 2), (6, 4)],
            6: [(3, 3), (7, 7), (0, 3), (4, 3), (8, 7), (1, 3), (5, 3), (2, 3)],
            7: [(4, 4), (6, 6), (8, 8), (1, 4), (3, 4), (5, 4), (0, 4), (2, 4)],
            8: [(5, 5), (7, 7), (2, 5), (4, 5), (6, 7), (1, 5), (3, 5), (0, 5)],
        }

    def test_matches_networkx_shortest_paths(self):
        nx = pytest.importorskip("networkx")
        for seed in range(250):
            rng = random.Random(seed)
            ids = rng.sample(range(200), rng.randint(1, 30))
            sites = [VNSite(vn_id, Point(rng.uniform(0, 3), rng.uniform(0, 3)))
                     for vn_id in ids]
            reach = rng.choice([0.5, 0.8, 1.2])
            g = nx.Graph()
            g.add_nodes_from(ids)
            for i, a in enumerate(sites):
                for b in sites[i + 1:]:
                    if a.location.within(b.location, reach):
                        g.add_edge(a.vn_id, b.vn_id)
            programs = build_routing_programs(sites, virtual_range=reach)
            for vn_id in ids:
                paths = nx.single_source_shortest_path(g, vn_id)
                want = [(dest, path[1]) for dest, path in paths.items()
                        if dest != vn_id]
                assert list(programs[vn_id].next_hop.items()) == want, seed


class TestDeliveringMailbox:
    def test_arrival_announced_then_dropped(self):
        p = DeliveringMailboxProgram(0, next_hop={})
        s = p.step(p.init_state(), 0,
                   VirtualObservation((("cl", ("send", 0, 0, "hi")),), False))
        assert p.emit(s, 1) == ("deliver", 0, "hi")
        s = p.step(s, 1, VirtualObservation((), False))
        assert p.emit(s, 2) is None

    def test_delivery_takes_priority_over_relay(self):
        p = DeliveringMailboxProgram(0, next_hop={9: 1})
        obs = VirtualObservation(
            (("cl", ("send", 0, 0, "local")), ("cl", ("send", 0, 9, "remote"))),
            False,
        )
        s = p.step(p.init_state(), 0, obs)
        assert p.emit(s, 1)[0] == "deliver"
        s = p.step(s, 1, VirtualObservation((), False))
        assert p.emit(s, 2) == ("relay", 1, 9, "remote")


class TestEndToEndRouting:
    def make_world(self, hops=3):
        sites, devices = vn_line(hops, spacing=0.5, replicas_per_vn=2)
        world = VIWorld(sites, build_routing_programs(sites, virtual_range=0.5))
        for pos in devices:
            world.add_device(pos)
        return world, sites

    def test_packet_crosses_overlay(self):
        world, sites = self.make_world(3)
        sender = SenderClient(0, {1: (2, "payload")})
        receiver = ReceiverClient()
        world.add_device(Point(0.0, 0.4), client=sender, initially_active=False)
        world.add_device(Point(1.0, 0.4), client=receiver, initially_active=False)
        world.run_virtual_rounds(30)
        bodies = [body for _, vn, body in receiver.received if vn == 2]
        assert "payload" in bodies

    def test_local_delivery_single_hop(self):
        world, _ = self.make_world(2)
        sender = SenderClient(0, {1: (0, "near")})
        receiver = ReceiverClient()
        world.add_device(Point(0.0, 0.4), client=sender, initially_active=False)
        world.add_device(Point(0.0, -0.4), client=receiver, initially_active=False)
        world.run_virtual_rounds(12)
        assert any(body == "near" for _, _, body in receiver.received)

    def test_replicas_stay_consistent_while_routing(self):
        world, sites = self.make_world(3)
        sender = SenderClient(0, {1: (2, "a"), 4: (2, "b")})
        world.add_device(Point(0.0, 0.4), client=sender, initially_active=False)
        world.run_virtual_rounds(24)
        for site in sites:
            world.check_replica_consistency(site.vn_id)
