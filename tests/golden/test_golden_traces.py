"""Golden-trace regression tests: one canonical seeded run per family.

Each scenario drives a small deterministic execution and renders its
trace with :func:`repro.net.canonical_dump`; the committed ``*.golden``
files pin the exact behaviour of the whole engine — geometry, channel,
adversary RNG streams, contention, detectors and every protocol's own
logic.  Any byte of drift fails here first, with a reviewable text diff.

After an intentional behaviour change, refresh with::

    PYTHONPATH=src python -m pytest tests/golden --update-golden

and commit the diff.  The scenarios deliberately exercise adversaries,
crashes, late joiners and mobility, not just the happy path.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

import pytest

from _worlds import vi_orbit_spec
from repro import CHA, ClusterWorld, ExperimentSpec, WorkloadSpec
from repro.experiment import (
    CheckpointCHA,
    DeployedWorld,
    DeviceSpec,
    EnvironmentSpec,
    MajorityRSM,
    NaiveRSM,
    TwoPhaseCHA,
    VIEmulation,
)
from repro.experiment.runner import run
from repro.geometry import Point
from repro.net import (
    Crash,
    CrashPoint,
    CrashSchedule,
    NoiseBurstAdversary,
    RandomLossAdversary,
    WaypointMobility,
    WindowAdversary,
    canonical_dump,
)
from repro.switches import Switches
from repro.vi.client import ScriptedClient
from repro.vi.program import CounterProgram
from repro.vi.schedule import VNSite

pytestmark = pytest.mark.fast

GOLDEN_DIR = Path(__file__).parent


def _count_reducer(state, k, value):
    return (state or 0) + 1


def _cha_spec():
    return ExperimentSpec(
        protocol=CHA(),
        world=ClusterWorld(n=5, rcf=9),
        environment=EnvironmentSpec(
            adversary=RandomLossAdversary(p_drop=0.3, p_false=0.2, seed=11),
            crashes=CrashSchedule([Crash(4, 14, CrashPoint.AFTER_SEND)]),
        ),
        workload=WorkloadSpec(instances=8),
    )


def _checkpoint_spec():
    return ExperimentSpec(
        protocol=CheckpointCHA(reducer=_count_reducer, initial_state=0),
        world=ClusterWorld(n=4),
        workload=WorkloadSpec(instances=8),
    )


def _two_phase_spec():
    return ExperimentSpec(
        protocol=TwoPhaseCHA(),
        world=ClusterWorld(n=4, rcf=6),
        environment=EnvironmentSpec(
            adversary=WindowAdversary(
                RandomLossAdversary(p_drop=0.4, seed=3), until=6),
        ),
        workload=WorkloadSpec(instances=8),
    )


def _naive_rsm_spec():
    return ExperimentSpec(
        protocol=NaiveRSM(),
        world=ClusterWorld(n=4),
        environment=EnvironmentSpec(
            adversary=NoiseBurstAdversary(p_false=0.3, until=12, seed=21),
        ),
        workload=WorkloadSpec(instances=8),
    )


def _majority_spec():
    return ExperimentSpec(
        protocol=MajorityRSM(),
        world=ClusterWorld(n=5),
        workload=WorkloadSpec(rounds=30),
    )


def _spread_spec():
    """A spread-out ring: the small-scale golden twin of the bench
    matrix's ``cha-1k-spread`` scenario.  Adjacent nodes sit within R1
    but second neighbours are beyond R2, so the run exercises the
    multi-cell grid index and partial-connectivity CHA dynamics (red
    and orange instances away from the contention manager's leader)
    rather than the single-region happy path."""
    return ExperimentSpec(
        protocol=CHA(),
        world=ClusterWorld(n=16, cluster_radius=2.2),
        workload=WorkloadSpec(instances=6),
    )


def _vi_spec():
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
        workload=WorkloadSpec(virtual_rounds=6),
    )


def _vi_join_reset_spec():
    """The phase-table engine's churn golden: a larger grid whose trace
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


SCENARIOS = {
    "cha": _cha_spec,
    "cha-spread": _spread_spec,
    "checkpoint-cha": _checkpoint_spec,
    "two-phase-cha": _two_phase_spec,
    "naive-rsm": _naive_rsm_spec,
    "majority-rsm": _majority_spec,
    "vi": _vi_spec,
    "vi-join-reset": _vi_join_reset_spec,
    # Every device moves (tests/_worlds.py): the trace carries positions,
    # so this file pins the motion kernel's floats bit for bit.
    "vi-orbit": vi_orbit_spec,
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_golden_trace(name, request):
    dump = canonical_dump(run(SCENARIOS[name]()).trace)
    path = GOLDEN_DIR / f"{name}.golden"
    if request.config.getoption("--update-golden"):
        path.write_text(dump)
        pytest.skip(f"golden trace {path.name} rewritten")
    assert path.exists(), (
        f"missing golden file {path}; generate it with "
        f"pytest tests/golden --update-golden"
    )
    committed = path.read_text()
    assert dump == committed, (
        f"{name}: trace drifted from the committed golden.  If the "
        f"change is intentional, refresh with --update-golden and "
        f"review the diff."
    )


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_golden_trace_reference_path(name, request):
    """The goldens hold on the full reference stack too (every twin of
    the switch table at once) — the committed files pin *model*
    behaviour, not fast-path quirks."""
    if request.config.getoption("--update-golden"):
        pytest.skip("goldens being rewritten")
    spec = dataclasses.replace(SCENARIOS[name](),
                               switches=Switches.REFERENCE)
    dump = canonical_dump(run(spec).trace)
    assert dump == (GOLDEN_DIR / f"{name}.golden").read_text()
