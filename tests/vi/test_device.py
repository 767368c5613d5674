"""Unit tests for the device process: role management and dispatch."""

import pytest

from repro.geometry import Point
from repro.vi import (
    CounterProgram,
    JoinState,
    Phase,
    PhaseClock,
    Schedule,
    SilentClient,
    SiteIndex,
    VIDevice,
    VIWorld,
    VNSite,
)

SITES = [VNSite(0, Point(0, 0)), VNSite(1, Point(10, 0))]


def make_device(position, *, client=None, initially_active=True):
    holder = {"pos": position}
    device = VIDevice(
        sites=SITES,
        programs={0: CounterProgram(), 1: CounterProgram()},
        schedule=Schedule({0: 0, 1: 0}, length=1),
        clock=PhaseClock(1),
        region_radius=0.25,
        locate=lambda: holder["pos"],
        client=client,
        initially_active=initially_active,
    )
    return device, holder


class TestRegionManagement:
    def test_deployment_activates_in_region_device(self):
        device, _ = make_device(Point(0.1, 0))
        device.send(0, False)  # CLIENT phase of vr 0
        assert device.replica is not None
        assert device.replica.site.vn_id == 0

    def test_out_of_region_device_stays_inactive(self):
        device, _ = make_device(Point(5, 5))
        device.send(0, False)
        assert device.replica is None

    def test_nearest_site_chosen(self):
        device, _ = make_device(Point(9.9, 0))
        device.send(0, False)
        assert device.replica.site.vn_id == 1

    def test_leaving_region_drops_replica(self):
        device, holder = make_device(Point(0.1, 0))
        device.send(0, False)
        assert device.replica is not None
        holder["pos"] = Point(5, 5)
        device.send(13, False)  # CLIENT phase of vr 1
        assert device.replica is None
        assert any(evt.startswith("left:") for _, evt in device.events)

    def test_entering_region_starts_join(self):
        device, holder = make_device(Point(5, 5), initially_active=False)
        device.send(0, False)
        assert device._join_state is JoinState.IDLE
        holder["pos"] = Point(0.1, 0)
        device.send(13, False)
        assert device._join_state is JoinState.WANT_JOIN
        assert device._join_target == 0

    def test_unknown_location_treated_as_outside(self):
        device = VIDevice(
            sites=SITES,
            programs={0: CounterProgram(), 1: CounterProgram()},
            schedule=Schedule({0: 0, 1: 0}, length=1),
            clock=PhaseClock(1),
            region_radius=0.25,
            locate=lambda: (_ for _ in ()).throw(KeyError(0)),
        )
        device.send(0, False)
        assert device.replica is None


class TestContention:
    def test_replica_device_contends_for_its_vn(self):
        device, _ = make_device(Point(0.1, 0))
        device.send(0, False)
        assert device.contend(1) == "vn0"

    def test_non_replica_device_does_not_contend(self):
        device, _ = make_device(Point(5, 5))
        device.send(0, False)
        assert device.contend(1) is None


class TestClientDispatch:
    def test_client_broadcast_wrapped_in_client_msg(self):
        from repro.vi import ScriptedClient
        client = ScriptedClient({0: "hello"})
        device, _ = make_device(Point(5, 5), client=client,
                                initially_active=False)
        out = device.send(0, False)
        assert out is not None and out.payload == "hello"
        assert out.virtual_round == 0

    def test_silent_client_sends_nothing(self):
        device, _ = make_device(Point(5, 5), client=SilentClient(),
                                initially_active=False)
        assert device.send(0, False) is None

    def test_client_and_replica_coexist(self):
        client = SilentClient()
        device, _ = make_device(Point(0.1, 0), client=client)
        device.send(0, False)
        assert device.replica is not None
        assert device.client is not None


class TestSiteLookup:
    """Region lookup goes through one per-world :class:`SiteIndex`."""

    @staticmethod
    def _world(side=8, spacing=6.0):
        sites = [VNSite(i, Point((i % side) * spacing, (i // side) * spacing))
                 for i in range(side * side)]
        world = VIWorld(sites, {s.vn_id: CounterProgram() for s in sites})
        for site in sites:
            world.add_device(Point(site.location.x + 0.1, site.location.y))
        world.add_device(Point(3.0, 3.0))           # in nobody's region
        return world

    def test_world_devices_share_one_site_index(self):
        world = self._world(side=3)
        assert {id(d.sites) for d in world.devices.values()} == \
            {id(world.site_index)}

    def test_bare_site_list_is_wrapped(self):
        device, _ = make_device(Point(0.1, 0))
        assert isinstance(device.sites, SiteIndex)
        assert device.sites[1] is SITES[1]
        assert device.sites.region_radius == device.region_radius

    def test_lookup_costs_a_few_distance_tests_not_one_per_site(
            self, monkeypatch):
        world = self._world()
        world.run_virtual_rounds(1)                 # positions are known
        calls = []
        real = Point.distance_to

        def counting(self, other):
            calls.append(None)
            return real(self, other)

        monkeypatch.setattr(Point, "distance_to", counting)
        for node_id, device in world.devices.items():
            del calls[:]
            target = device._nearest_site_in_region()
            assert len(calls) <= 4, (node_id, len(calls))   # 64 sites
            assert (target is None) == (node_id == 64)
