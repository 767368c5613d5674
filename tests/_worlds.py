"""Worlds shared by more than one suite.

``vi_orbit_spec`` is the one kept-trace world in which every device
moves: the golden suite pins its trace (positions included, so the
motion kernel's floats are pinned bit for bit) and the vi-differential
suite runs it across the switch matrix.  ``static_world`` is one in
which no device moves, for the VI suites that count steady-state work.
"""

from __future__ import annotations

import math

from repro import ExperimentSpec, WorkloadSpec
from repro.experiment import (
    DeployedWorld,
    DeviceSpec,
    MetricsSpec,
    VIEmulation,
)
from repro.geometry import Point
from repro.net import OrbitMobility, RandomWaypointMobility
from repro.vi import CounterProgram, ScriptedClient, VIWorld, VNSite

#: 2x2 sites this far apart all conflict (0.7 * sqrt(2) < R1 + 2*R2 = 4),
#: so the schedule has length 4, while their R1/4 = 0.25 regions stay
#: disjoint.  0.7 is not a binary fraction: orbit corners and edge
#: directions carry rounding in every coordinate.
_SPACING = 0.7

#: (radius, speed) per orbiting replica of a site; every orbit stays
#: inside the region (corner distance ``radius * sqrt(2) < 0.25``).
_ORBITS = ((0.05, 0.01), (0.1, 0.03), (0.13, 0.017))


def vi_orbit_spec() -> ExperimentSpec:
    """Three orbiting replicas on each of 2x2 sites, two roaming clients.

    The roamers start inactive, so they must join.  With these seeds
    node 12 is acked by sites 0 and 3 on its way through them, becomes a
    replica of site 1 and leaves it; node 13 becomes a replica of site 1,
    leaves, becomes a replica of site 0, leaves, and is acked by site 3
    as the run ends — join, hand-off and ``left:`` all fire within the
    twelve virtual rounds (``test_vi_orbit_world_roams`` in the
    vi-differential suite pins that).
    """
    sites = tuple(VNSite(2 * i + j, Point(_SPACING * i, _SPACING * j))
                  for i in range(2) for j in range(2))
    devices = [
        DeviceSpec(mobility=OrbitMobility(site.location, radius=radius,
                                          speed=speed))
        for site in sites for radius, speed in _ORBITS
    ]
    arena = (-0.2, -0.2, _SPACING + 0.2, _SPACING + 0.2)
    roamers = (
        (Point(0.05, -0.1), 24, {1: ("add", 5), 6: ("add", 9)}),
        (Point(_SPACING - 0.1, _SPACING + 0.05), 124,
         {3: ("add", 7), 9: ("add", 2)}),
    )
    for start, seed, script in roamers:
        devices.append(DeviceSpec(
            mobility=RandomWaypointMobility(start, arena=arena, speed=0.02,
                                            seed=seed),
            client=ScriptedClient(script),
            initially_active=False))
    return ExperimentSpec(
        protocol=VIEmulation(programs={site.vn_id: CounterProgram()
                                       for site in sites}),
        world=DeployedWorld(sites=sites, devices=tuple(devices)),
        workload=WorkloadSpec(virtual_rounds=12),
        metrics=MetricsSpec(metrics=("availability", "emulation_gaps"),
                            invariants=("replica_consistency",)),
    )


def static_world(replicas_per_site: int, **world_kwargs) -> VIWorld:
    """``vi-static``'s shape at 2 x 2: far-apart sites (schedule length
    1), static replicas on a small circle in each region, and a client on
    site 0's first replica.  ``world_kwargs`` go to :class:`VIWorld`."""
    sites = [VNSite(i, Point((i % 2) * 6.0, (i // 2) * 6.0))
             for i in range(4)]
    world = VIWorld(sites, {site.vn_id: CounterProgram() for site in sites},
                    **world_kwargs)
    script = {vr: ("add", vr + 1) for vr in range(0, 40, 3)}
    for site in sites:
        for j in range(replicas_per_site):
            angle = 2.0 * math.pi * j / replicas_per_site
            client = (ScriptedClient(script)
                      if site.vn_id == 0 and j == 0 else None)
            world.add_device(Point(site.location.x + 0.12 * math.cos(angle),
                                   site.location.y + 0.12 * math.sin(angle)),
                             client=client)
    return world
