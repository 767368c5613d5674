"""The scenario catalogue: every test world, written once.

Each suite picks its slice of these by name.  Stateful parts are built
fresh on every call (an adversary carries RNG state and a run consumes
it), so everything here is a factory.

* :func:`cluster_spec` builds the Section 3 cluster of any protocol
  family in :data:`FAMILIES`; an :data:`ENVIRONMENTS` entry is a named
  set of its keyword arguments (the world's ``rcf`` and
  ``cluster_radius`` ride along with the adversary and the crashes).
* The VI worlds: :func:`vi_spec` (two sites, four static replicas),
  :func:`vi_join_reset_spec` (a crash wave forces a RESET rebirth),
  :func:`vi_orbit_spec` (every device moves) and :func:`static_world`
  (``vi-static``'s shape at 2 x 2).
* The channel worlds: :func:`random_channel_world` and
  :func:`saturated_channel_world`.
"""

from __future__ import annotations

import math
import random

from repro import CHA, ClusterWorld, ExperimentSpec, WorkloadSpec
from repro.experiment import (
    CheckpointCHA,
    DeployedWorld,
    DeviceSpec,
    EnvironmentSpec,
    MajorityRSM,
    MetricsSpec,
    NaiveRSM,
    TwoPhaseCHA,
    VIEmulation,
)
from repro.geometry import Point
from repro.net import (
    Crash,
    CrashPoint,
    CrashSchedule,
    Message,
    NoiseBurstAdversary,
    OrbitMobility,
    RadioSpec,
    RandomLossAdversary,
    RandomWaypointMobility,
    TargetedDropAdversary,
    WaypointMobility,
    WindowAdversary,
)
from repro.switches import Switches
from repro.vi import CounterProgram, ScriptedClient, VIWorld, VNSite


# ----------------------------------------------------------------------
# Cluster worlds
# ----------------------------------------------------------------------

def count_reducer(state, k, value):
    """The checkpoint family's fold: how many instances it has seen."""
    return (state or 0) + 1


#: Protocol spec factory per family.
FAMILIES = {
    "cha": CHA,
    "checkpoint-cha": lambda: CheckpointCHA(reducer=count_reducer,
                                            initial_state=0),
    "two-phase-cha": TwoPhaseCHA,
    "naive-rsm": NaiveRSM,
    "majority-rsm": MajorityRSM,
}


def _two_crashes():
    return CrashSchedule([Crash(0, 10, CrashPoint.AFTER_SEND),
                          Crash(2, 17, CrashPoint.BEFORE_SEND)])


#: Named environments: factories of :func:`cluster_spec` keyword
#: arguments.
ENVIRONMENTS = {
    "benign": dict,
    # Every pair within R2, some beyond R1: the leader's far receivers
    # get a flag, the near ones its ballot.
    "benign-wide": lambda: {"cluster_radius": 0.6},
    "lossy": lambda: {"rcf": 60, "adversary": WindowAdversary(
        RandomLossAdversary(p_drop=0.3, p_false=0.3, seed=5), until=40)},
    "crashes+noise": lambda: {"rcf": 30, "crashes": _two_crashes(),
                              "adversary": WindowAdversary(
        NoiseBurstAdversary(p_false=0.4, seed=9), until=25)},
    "targeted+noise": lambda: {"rcf": 30, "crashes": _two_crashes(),
                               "adversary": WindowAdversary(
        TargetedDropAdversary([1]), until=20)},
    "bursty": lambda: {"adversary": WindowAdversary(
        NoiseBurstAdversary(p_false=0.4, seed=9), until=25)},
    # Loss and spurious collisions that end before ``rcf``, and a crash
    # right after a send; the world's ``rcf`` is the caller's.
    "windowed-loss+crash": lambda: {
        "adversary": WindowAdversary(RandomLossAdversary(
            p_drop=0.25, p_false=0.2, seed=13), until=30),
        "crashes": CrashSchedule([Crash(4, 20, CrashPoint.AFTER_SEND)])},
}


def cluster_spec(family: str, *, n: int, instances: int | None = None,
                 rounds: int | None = None, rcf: int = 0,
                 cluster_radius: float | None = None,
                 metrics: MetricsSpec = MetricsSpec(),
                 keep_trace: bool = True, switches: Switches = Switches(),
                 **environment) -> ExperimentSpec:
    """``n`` nodes of ``family`` in one cluster for ``instances`` (or
    ``rounds``); ``environment`` goes to :class:`EnvironmentSpec`."""
    return ExperimentSpec(
        protocol=FAMILIES[family](),
        world=ClusterWorld(n=n, rcf=rcf, cluster_radius=cluster_radius),
        environment=EnvironmentSpec(**environment),
        workload=WorkloadSpec(instances=instances, rounds=rounds),
        metrics=metrics, keep_trace=keep_trace, switches=switches)


# ----------------------------------------------------------------------
# VI worlds
# ----------------------------------------------------------------------

#: What the VI gates read besides the trace.
VI_METRICS = MetricsSpec(metrics=("availability", "emulation_gaps"),
                         invariants=("replica_consistency",))


def vi_spec(virtual_rounds: int, *, metrics: MetricsSpec = MetricsSpec(),
            **environment) -> ExperimentSpec:
    """Two sites 0.5 apart with two static replicas each;
    ``environment`` goes to :class:`EnvironmentSpec`."""
    sites = (VNSite(0, Point(0.0, 0.0)), VNSite(1, Point(0.5, 0.0)))
    devices = tuple(
        DeviceSpec(mobility=Point(site.location.x + dx, 0.1 * (j + 1)))
        for site in sites
        for j, dx in enumerate((-0.1, 0.1))
    )
    return ExperimentSpec(
        protocol=VIEmulation(programs={0: CounterProgram(),
                                       1: CounterProgram()}),
        world=DeployedWorld(sites=sites, devices=devices),
        environment=EnvironmentSpec(**environment),
        workload=WorkloadSpec(virtual_rounds=virtual_rounds),
        metrics=metrics,
    )


def vi_join_reset_spec() -> ExperimentSpec:
    """The phase-table engine's churn world: a larger grid whose trace
    crosses every table invalidation — a walker joins mid-run, a crash
    wave kills both of site 0's replicas so the walker's JOIN_ACK goes
    silent and it reruns the RESET rebirth, and a late device joins the
    reborn node — all under windowed loss."""
    rpv = 2 + 12  # min_schedule_length + the 12 fixed phase rounds
    sites = (VNSite(0, Point(0.0, 0.0)), VNSite(1, Point(6.0, 0.0)),
             VNSite(2, Point(12.0, 0.0)))
    devices = (
        # Two deployed replicas per site; site 0's pair (nodes 0 and 1)
        # is the crash wave's target.
        DeviceSpec(mobility=Point(-0.1, 0.1)),
        DeviceSpec(mobility=Point(0.1, 0.1)),
        DeviceSpec(mobility=Point(5.9, 0.1)),
        DeviceSpec(mobility=Point(6.1, 0.1)),
        DeviceSpec(mobility=Point(11.9, 0.1)),
        DeviceSpec(mobility=Point(12.1, 0.1)),
        # A client just outside site 0's region (radius 0.25).
        DeviceSpec(mobility=Point(0.6, 0.4),
                   client=ScriptedClient({2: ("add", 5), 6: ("add", 8)})),
        # A walker that parks inside site 0's region and joins — then
        # must reset the node once the crash wave has silenced it.
        DeviceSpec(mobility=WaypointMobility(
            Point(0.0, 3.0), [Point(0.0, 0.05)], speed=0.05),
            initially_active=False),
        # A late arrival that joins the reborn virtual node.
        DeviceSpec(mobility=Point(0.05, -0.05), start_round=5 * rpv),
    )
    return ExperimentSpec(
        protocol=VIEmulation(programs={0: CounterProgram(),
                                       1: CounterProgram(),
                                       2: CounterProgram()}),
        world=DeployedWorld(sites=sites, devices=devices, rcf=12,
                            min_schedule_length=2),
        environment=EnvironmentSpec(
            adversary=WindowAdversary(
                RandomLossAdversary(p_drop=0.2, p_false=0.15, seed=17),
                until=20),
            crashes=CrashSchedule([
                Crash(0, 3 * rpv, CrashPoint.AFTER_SEND),
                Crash(1, 3 * rpv, CrashPoint.BEFORE_SEND),
            ]),
        ),
        workload=WorkloadSpec(virtual_rounds=12),
    )


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

    The one kept-trace world in which every device moves: the golden
    suite pins its trace (positions included, so the motion kernel's
    floats are pinned bit for bit) and the vi-differential suite runs it
    across the switch matrix.  The roamers start inactive, so they must
    join.  With these seeds node 12 is acked by sites 0 and 3 on its way
    through them, becomes a replica of site 1 and leaves it; node 13
    becomes a replica of site 1, leaves, becomes a replica of site 0,
    leaves, and is acked by site 3 as the run ends — join, hand-off and
    ``left:`` all fire within the twelve virtual rounds
    (``test_vi_orbit_world_roams`` in the vi-differential suite pins
    that).
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
        metrics=VI_METRICS,
    )


def static_world(replicas_per_site: int, **world_kwargs) -> VIWorld:
    """``vi-static``'s shape at 2 x 2, for the VI suites that count
    steady-state work: far-apart sites (schedule length 1), static
    replicas on a small circle in each region, and a client on site 0's
    first replica.  ``world_kwargs`` go to :class:`VIWorld`."""
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


# ----------------------------------------------------------------------
# Channel worlds
# ----------------------------------------------------------------------

def random_channel_world(rng: random.Random):
    """A random radio spec, node placement and broadcast set."""
    n = rng.randint(1, 40)
    r1 = rng.uniform(0.05, 3.0)
    r2 = r1 * rng.uniform(1.0, 2.5)
    rcf = rng.choice([0, 0, 3, 50])
    spec = RadioSpec(r1=r1, r2=r2, rcf=rcf)
    span = rng.choice([1.0, 4.0, 20.0])
    positions = {
        i: Point(rng.uniform(-span, span), rng.uniform(-span, span))
        for i in range(n)
    }
    broadcasts = {
        i: Message(i, f"m{i}")
        for i in range(n) if rng.random() < rng.choice([0.05, 0.3, 0.9])
    }
    return spec, positions, broadcasts


def saturated_channel_world():
    """Clusters of eight nodes in three adjacent grid cells and one far
    one (cell size R2 = 1.5), plus a lone sender with one neighbour
    inside R1 and two in its R1-R2 annulus.  Returns the positions, the
    lone sender and the generator, for the caller's sender draws."""
    rng = random.Random(21)
    positions = {}
    for cx, cy in [(0, 0), (1, 0), (0, 1), (6, 6)]:
        for _ in range(8):
            positions[len(positions)] = Point((cx + rng.random()) * 1.5,
                                              (cy + rng.random()) * 1.5)
    lone = len(positions)
    for dx in (0.0, 0.5, 1.2, -1.4):
        positions[len(positions)] = Point(-20.0 + dx, -20.0)
    shuffled = list(positions.items())
    rng.shuffle(shuffled)  # key order is part of the contract
    return dict(shuffled), lone, rng
