"""Differential verification of the phase-table VI emulation engine.

The phase-table engine (:class:`repro.vi.engine.VIRoundEngine`, the
default for deployed worlds) must be *byte-identical* to the seed
per-device dispatch (``Switches(vi=True)``: one full
``Simulator.step`` per real round) — traces, outputs, metrics, and
invariant verdicts all pickle to the same bytes — across every
combination with the engine, channel, history and core reference
switches, under loss, crash waves, and mid-run join/reset storms, for
several schedule lengths.  This suite is the regression gate for any
change to the phase tables: role partitioning, quiet-round skips,
sender/receiver prebinding, or the role-version table reuse.

Run it alone with ``pytest -m vi_differential`` (the PR CI pre-gate,
next to ``core_differential``).
"""

from __future__ import annotations

import pickle

import pytest

from _switches import assert_corners_agree
from _worlds import ENVIRONMENTS, VI_METRICS, vi_orbit_spec
from repro import ExperimentSpec, WorkloadSpec
from repro.experiment import (
    DeployedWorld,
    DeviceSpec,
    EnvironmentSpec,
    VIEmulation,
)
from repro.experiment.runner import run
from repro.geometry import Point
from repro.net import (
    Crash,
    CrashPoint,
    CrashSchedule,
    LinearMobility,
    NoiseBurstAdversary,
    OrbitMobility,
    WaypointMobility,
    WindowAdversary,
)
from repro.apps.atomic_memory import RegisterProgram, WriterClient
from repro.apps.tracking import TargetClient, TrackerProgram
from repro.switches import Switches
from repro.vi import CounterProgram, ScriptedClient, VIWorld, VNSite

pytestmark = [pytest.mark.fast, pytest.mark.vi_differential]


#: Each axis flipped alone, the production stack first; the
#: all-reference stack is the anchor everything else must match.  The
#: phase-table engine falls back to per-round stepping when the
#: simulator itself is pinned to its seed loop (``engine`` on, ``vi``
#: off), so that row exercises the fallback path.
FLIPS = [
    Switches(),
    Switches(vi=True),
    Switches(engine=True),
    Switches(channel=True),
    Switches(history=True),
    Switches(core=True),
]


def _environments(rpv: int):
    """Environment kwarg *factories* per scenario (adversaries carry RNG
    state, so every run needs a fresh one), scaled to the virtual round
    length so crashes land at virtual-round-relevant moments."""
    yield "benign", ENVIRONMENTS["benign"]
    yield "lossy", ENVIRONMENTS["lossy"]
    # Kills both of site 0's deployed replicas just after virtual round
    # 2: the walker that parked in the region must observe JOIN_ACK
    # silence, probe RESET, and rebirth the virtual node (Section 4.3) —
    # the join/reset storm case, under detector noise.
    yield "crash-wave", lambda: {
        "rcf": 30,
        "adversary": WindowAdversary(
            NoiseBurstAdversary(p_false=0.4, seed=9), until=25),
        "crashes": CrashSchedule([
            Crash(0, 2 * rpv, CrashPoint.AFTER_SEND),
            Crash(1, 2 * rpv + 3, CrashPoint.BEFORE_SEND),
        ]),
    }


#: The virtual nodes' program and the out-of-region client, per app.  The
#: counter's state is an int; the register's ``(seq, value)`` tuple comes
#: back unchanged from most steps and the tracker's is a tuple of pairs,
#: so a cohort's shared checkpoint state must pickle as the per-replica
#: states do (JoinAck snapshots carry it into the trace).
APPS = {
    "counter": (CounterProgram, lambda: ScriptedClient(
        {2: ("add", 7), 5: ("add", 11), 8: ("add", 13)})),
    "register": (RegisterProgram, lambda: WriterClient(
        {2: "x", 5: ("y", 1), 8: "z"})),
    "tracker": (TrackerProgram, lambda: TargetClient("t", period=2)),
}


def _spec_factory(schedule_length: int, env_factory, app: str = "counter"):
    """A deployed world stressing every phase-table role: deployed
    replicas on two sites, an out-of-region client, a walker joiner,
    and a late-starting device that joins mid-run.  The environment's
    ``rcf``, ``cm_stable_round`` and extra ``devices`` go to the world."""
    rpv = schedule_length + 12
    program, client = APPS[app]

    def spec_factory():
        env = env_factory()
        rcf = env.pop("rcf", 0)
        stable_round = env.pop("cm_stable_round", 0)
        extra_devices = env.pop("devices", ())
        sites = (VNSite(0, Point(0.0, 0.0)), VNSite(1, Point(6.0, 0.0)))
        devices = (
            # Two deployed replicas per site.
            DeviceSpec(mobility=Point(-0.1, 0.1)),
            DeviceSpec(mobility=Point(0.1, 0.1)),
            DeviceSpec(mobility=Point(5.9, 0.1)),
            DeviceSpec(mobility=Point(6.1, 0.1)),
            # A client outside every region (radius r1/4 = 0.25).
            DeviceSpec(mobility=Point(0.3, 0.0), client=client()),
            # A walker that parks inside site 0's region and joins.
            DeviceSpec(mobility=WaypointMobility(
                Point(0.0, 3.0), [Point(0.0, 0.05)], speed=0.05),
                initially_active=False),
            # A late arrival inside site 0's region: must join too.
            DeviceSpec(mobility=Point(0.05, 0.05),
                       start_round=3 * rpv),
        ) + extra_devices
        return ExperimentSpec(
            protocol=VIEmulation(programs={0: program(), 1: program()}),
            world=DeployedWorld(sites=sites, devices=devices, rcf=rcf,
                                cm_stable_round=stable_round,
                                min_schedule_length=schedule_length),
            environment=EnvironmentSpec(**env),
            workload=WorkloadSpec(virtual_rounds=12),
            metrics=VI_METRICS,
        )

    return spec_factory


def _scenarios():
    for app in APPS:
        prefix = "" if app == "counter" else f"{app}-"
        for s in (1, 3, 7):
            for env_name, env_factory in _environments(s + 12):
                yield (f"{prefix}s{s}-{env_name}",
                       _spec_factory(s, env_factory, app))
    # The regional managers stabilise mid virtual round 1: the engine
    # must not reuse a pre-stability answer (every in-region contender
    # granted), and must ask anew in the first stable round.
    yield "s3-stable-mid-round", _spec_factory(
        3, lambda: {"cm_stable_round": 5 * 15 + 7})
    # A deployed replica at site 0's centre is elected, then drifts out
    # of the region mid virtual round 1 and parks outside it: the round
    # it leaves must re-elect, though its settled grant came the round
    # before and no role has changed yet.
    yield "s3-leader-walks-out", _spec_factory(3, lambda: {"devices": (
        DeviceSpec(mobility=WaypointMobility(
            Point(0.0, 0.0), [Point(0.0, -0.4)], speed=0.01)),)})
    # The all-mobile world (schedule length 4): orbiting replicas and
    # roaming clients, so positions, region lookups and role tables
    # change every round.
    yield "orbit", vi_orbit_spec


@pytest.mark.parametrize("name,spec_factory", list(_scenarios()),
                         ids=[name for name, _ in _scenarios()])
def test_vi_byte_identical_across_switch_matrix(name, spec_factory):
    assert_corners_agree(spec_factory, [Switches.REFERENCE, *FLIPS])


def test_vi_orbit_world_roams():
    """The orbit world is only worth its golden while its roamers really
    join, hand off and leave, on a schedule longer than one slot."""
    world = run(vi_orbit_spec()).world
    assert world.schedule.length > 1
    for roamer in (12, 13):
        events = [event for _, event in world.devices[roamer].events]
        joined = [e for e in events if e.startswith("join-req:")]
        assert len(set(joined)) >= 2, events          # more than one region
        assert any(e.startswith("active:") for e in events), events
        assert any(e.startswith("left:") for e in events), events


def test_vi_trace_free_run_matches_traced_run():
    """``keep_trace`` decides only whether a trace is recorded: a
    trace-free run's outputs, metrics and verdicts match the traced
    run's exactly."""
    _, spec_factory = next(_scenarios())

    def observables(keep_trace: bool) -> bytes:
        result = run(spec_factory().override(keep_trace=keep_trace))
        return pickle.dumps((result.outputs, result.metrics,
                             result.invariants, result.violation_context))

    assert observables(False) == observables(True)


# ----------------------------------------------------------------------
# Tenure horizons running out
# ----------------------------------------------------------------------

def _horizon_world(extra, switches: Switches, period: int = 1) -> bytes:
    """Two far-apart sites with two static replicas each and a client
    outside every region, plus the ``extra`` movers, for ten virtual
    rounds; the trace and the outcomes, pickled.  ``period`` is the
    location service's update period (set on the simulator's service:
    the deployed world has no knob for it)."""
    sites = [VNSite(0, Point(0.0, 0.0)), VNSite(1, Point(6.0, 0.0))]
    world = VIWorld(sites, {0: CounterProgram(), 1: CounterProgram()},
                    switches=switches)
    world.sim.locations._period = period
    for where in (Point(-0.1, 0.1), Point(0.1, 0.1),
                  Point(5.9, 0.1), Point(6.1, 0.1)):
        world.add_device(where)
    world.add_device(Point(0.3, 0.0),
                     client=ScriptedClient({1: ("add", 3), 4: ("add", 5)}))
    for mobility in extra():
        world.add_device(mobility)
    world.run_virtual_rounds(10)
    return pickle.dumps((world.sim.trace, world.outcomes))


#: ``(extra movers, location update period)`` per row.  Each row seats a
#: moving leader whose tenure horizon runs out while it moves.
HORIZON_ROWS = {
    # The orbit's top edge runs through site 0's centre, so the leader
    # it carries (nearest the centre when elected) leaves the region
    # straight out at full speed: its located distance grows by exactly
    # the speed bound per round, the horizon's floor is tight, and the
    # leader is out of region the round after it runs out.  At this
    # speed and start the float slop is what keeps the horizon exact.
    "orbit-edge-exit": (lambda: [OrbitMobility(Point(0.05 - 0.3, -0.3),
                                               radius=0.3, speed=0.025)], 1),
    # A roamer passing site 0's replicas leaves their R1, then their R2:
    # the channel's skin-kept reach sees it cross both.
    "roamer-crosses-r1-r2": (lambda: [
        LinearMobility(Point(0.0, 0.5), Point(0.0, 0.06))], 1),
    # A walker elected near site 0's centre walks 0.2 out and parks in
    # the region: its horizon runs out while it walks, and again once
    # it stands still (its model keeps its 0.01 bound), when nobody is
    # located anew and the settled advice is reused past it.
    "waypoint-parks-in-region": (lambda: [WaypointMobility(
        Point(0.0, 0.1), [Point(0.0, -0.2)], speed=0.01)], 1),
    # Snapshots every fourth round: the leader's located position is up
    # to three rounds stale, and its horizon counts from the snapshot.
    "stale-snapshots": (lambda: [OrbitMobility(Point(-0.3, -0.3),
                                               radius=0.3, speed=0.017)], 4),
}


@pytest.mark.parametrize("row", list(HORIZON_ROWS))
def test_expiring_horizons_match_per_device_dispatch(row):
    extra, period = HORIZON_ROWS[row]
    assert (_horizon_world(extra, Switches(), period)
            == _horizon_world(extra, Switches(vi=True), period))
