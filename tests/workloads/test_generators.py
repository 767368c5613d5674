"""Unit tests for the canned deployment scenarios."""

import pytest


class TestScenarios:
    def test_single_region_geometry(self):
        from repro.workloads import single_region
        sites, devices = single_region(4)
        assert len(sites) == 1 and len(devices) == 4
        assert all(sites[0].location.within(d, 0.25) for d in devices)

    def test_vn_line_within_virtual_range(self):
        from repro.workloads import vn_line
        sites, devices = vn_line(4, spacing=0.5, replicas_per_vn=2)
        assert len(sites) == 4 and len(devices) == 8
        for a, b in zip(sites, sites[1:]):
            assert a.location.distance_to(b.location) == pytest.approx(0.5)

    def test_vn_grid_counts(self):
        from repro.workloads import vn_grid
        sites, devices = vn_grid(2, 3, replicas_per_vn=2)
        assert len(sites) == 6 and len(devices) == 12

    def test_devices_in_region(self):
        from repro.workloads import vn_grid
        sites, devices = vn_grid(2, 2, replicas_per_vn=3)
        for i, site in enumerate(sites):
            mine = devices[3 * i: 3 * i + 3]
            assert all(site.location.within(d, 0.25) for d in mine)

    def test_roaming_devices_deterministic(self):
        from repro.workloads import roaming_devices
        a = roaming_devices(3, arena=(0, 0, 10, 10), speed=0.5, seed=7)
        b = roaming_devices(3, arena=(0, 0, 10, 10), speed=0.5, seed=7)
        for ma, mb in zip(a, b):
            assert [ma.position_at(r) for r in range(20)] == \
                   [mb.position_at(r) for r in range(20)]
