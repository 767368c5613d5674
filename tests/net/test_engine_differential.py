"""Differential verification of the batched round engine.

The batched dispatch engine (``Simulator._step_batched``, the default)
must be *byte-identical* to the seed per-node loop
(``Simulator._step_reference``) — traces, outputs, metrics, and
invariant verdicts all pickle to the same bytes — across every protocol
family, under fault plans, and in every combination with the channel and
history reference switches.  This suite is the regression gate for any
change to the engine's dispatch, its dirty-set position cache, or the
ensembles' ``RoundBatch`` decode sharing.
"""

from __future__ import annotations

import pickle

import pytest

from _switches import corners, observables, run_with
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
from repro.faults import CrashWave, DetectorNoise, MessageStorm, plan
from repro.geometry import Point
from repro.net import (
    Crash,
    CrashPoint,
    CrashSchedule,
    NoiseBurstAdversary,
    RadioSpec,
    RandomLossAdversary,
    RandomWaypointMobility,
    Simulator,
    WaypointMobility,
    WindowAdversary,
)
from repro.switches import Switches
from repro.vi.program import CounterProgram
from repro.vi.schedule import VNSite

pytestmark = pytest.mark.fast


def _count_reducer(state, k, value):
    return (state or 0) + 1


def _result_bytes(spec_factory, switches: Switches) -> bytes:
    return observables(run_with(spec_factory(), switches))


#: Every (engine, channel) corner, the production stack first; the last
#: — seed loop over the all-pairs channel — is the anchor everything
#: else must match.
*MODES, ANCHOR = corners("engine", "channel")


def _environments():
    yield "benign", lambda: {}
    # Every pair within R2, some beyond R1: the leader's far receivers
    # get a flag, the near ones its ballot.
    yield "benign-wide", lambda: {"cluster_radius": 0.6}
    yield "lossy", lambda: {
        "rcf": 60,
        "adversary": WindowAdversary(
            RandomLossAdversary(p_drop=0.3, p_false=0.3, seed=5), until=40),
    }
    yield "crashes+noise", lambda: {
        "rcf": 30,
        "adversary": NoiseBurstAdversary(p_false=0.4, until=25, seed=9),
        "crashes": CrashSchedule([
            Crash(0, 10, CrashPoint.AFTER_SEND),
            Crash(2, 17, CrashPoint.BEFORE_SEND),
        ]),
    }


def _cluster_factory(protocol_factory, env_factory):
    def spec_factory():
        env = env_factory()
        rcf = env.pop("rcf", 0)
        world = ClusterWorld(n=7, rcf=rcf,
                             cluster_radius=env.pop("cluster_radius", None))
        if protocol_factory is MajorityRSM:
            return ExperimentSpec(
                protocol=MajorityRSM(),
                world=world,
                environment=EnvironmentSpec(**env),
                workload=WorkloadSpec(rounds=45),
                metrics=MetricsSpec(metrics=("rounds", "total_broadcasts",
                                             "decided_instances")),
            )
        if protocol_factory is CheckpointCHA:
            protocol = CheckpointCHA(reducer=_count_reducer, initial_state=0)
        else:
            protocol = protocol_factory()
        return ExperimentSpec(
            protocol=protocol,
            world=world,
            environment=EnvironmentSpec(**env),
            workload=WorkloadSpec(instances=15),
            metrics=MetricsSpec(metrics=("rounds", "total_broadcasts"),
                                invariants=("all",)),
        )
    return spec_factory


@pytest.mark.parametrize("protocol_factory",
                         [CHA, CheckpointCHA, TwoPhaseCHA, NaiveRSM,
                          MajorityRSM],
                         ids=lambda f: f.__name__)
@pytest.mark.parametrize("env_name,env_factory", list(_environments()),
                         ids=[name for name, _ in _environments()])
def test_engines_byte_identical_per_family(protocol_factory, env_name,
                                           env_factory):
    spec_factory = _cluster_factory(protocol_factory, env_factory)
    anchor = _result_bytes(spec_factory, ANCHOR)
    for switches in MODES:
        assert _result_bytes(spec_factory, switches) == anchor, switches


@pytest.mark.parametrize("history_ref", [False, True],
                         ids=["chain-history", "reference-history"])
def test_engines_byte_identical_with_history_switch(history_ref):
    """The engine switch composes with the history switch: all four
    corners of (engine, history) produce identical bytes."""
    def spec_factory():
        return ExperimentSpec(
            protocol=CHA(),
            world=ClusterWorld(n=6, rcf=20),
            environment=EnvironmentSpec(
                adversary=RandomLossAdversary(p_drop=0.25, p_false=0.2,
                                              seed=13)),
            workload=WorkloadSpec(instances=12),
            metrics=MetricsSpec(invariants=("all",)),
        )
    batched, seed = corners("engine", history=history_ref)
    assert _result_bytes(spec_factory, batched) == \
        _result_bytes(spec_factory, seed)


def test_engines_byte_identical_under_fault_plan():
    """A compiled FaultPlan (crash wave + message storm + detector
    noise) must not distinguish the engines either."""
    def spec_factory():
        return ExperimentSpec(
            protocol=CHA(),
            world=ClusterWorld(n=8),
            workload=WorkloadSpec(instances=16),
            metrics=MetricsSpec(invariants=("all",)),
            faults=plan(
                CrashWave(fraction=0.25, horizon=20),
                MessageStorm(intensity=0.4, until=24),
                DetectorNoise(p_false=0.2, until=18),
                seed=77,
            ),
        )
    anchor = _result_bytes(spec_factory, ANCHOR)
    for switches in MODES:
        assert _result_bytes(spec_factory, switches) == anchor, switches


def test_engines_byte_identical_vi_emulation():
    def spec_factory():
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
            workload=WorkloadSpec(virtual_rounds=8),
            metrics=MetricsSpec(metrics=("availability", "emulation_gaps"),
                                invariants=("replica_consistency",)),
        )
    anchor = _result_bytes(spec_factory, ANCHOR)
    for switches in MODES:
        assert _result_bytes(spec_factory, switches) == anchor, switches


def test_engines_byte_identical_under_mobility_dirty_set():
    """Mixed mobility: parked waypoint walkers (dirty-set skips), active
    roamers, a late joiner and a crash — the dirty-set position cache
    must be invisible in the trace bytes."""
    def build(engine_ref: bool) -> bytes:
        sim = Simulator(
            spec=RadioSpec(r1=1.0, r2=1.5, rcf=10),
            adversary=RandomLossAdversary(p_drop=0.25, seed=3),
            crashes=CrashSchedule.of({2: 25}),
            switches=Switches(engine=engine_ref),
        )

        class Chatter:
            def __init__(self, me): self.me = me
            def contend(self, r): return None
            def send(self, r, active):
                return ("chat", self.me, r) if (r + self.me) % 3 == 0 else None
            def deliver(self, r, messages, collision): pass

        for i in range(12):
            if i % 3 == 0:
                mobility = RandomWaypointMobility(
                    Point(i * 0.3 - 2.0, 0.0), arena=(-3, -3, 3, 3),
                    speed=0.15, seed=100 + i)
            elif i % 3 == 1:
                # Walks a short leg, then parks: the dirty-set's clean
                # case after a dirty prefix.
                mobility = WaypointMobility(
                    Point(i * 0.3 - 2.0, 0.0),
                    [Point(i * 0.3 - 2.0, 0.8)], speed=0.2)
            else:
                mobility = Point(i * 0.3 - 2.0, 0.1)
            sim.add_node(Chatter(i), mobility,
                         start_round=0 if i < 9 else 5)
        sim.run(40)
        return pickle.dumps(sim.trace)

    assert build(False) == build(True)
