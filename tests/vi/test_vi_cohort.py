"""VI replica cohorts, counted: a site's deployed replicas share one
checkpoint store, and the phase-table engine steps it once per phase.

A count, not a timing (CI's proportionality gate runs the counting
tests): over steady virtual rounds the store steps and the program's
transition run once per site per virtual round, whether a site has two
replicas or four.  Under per-replica stepping they run once per replica.
"""

from __future__ import annotations

import pytest

from _cores import count_calls
from _switches import observables, run_with
from _worlds import static_world
from repro import ExperimentSpec, WorkloadSpec
from repro.core.slotted import SlottedChaCore, shared_store
from repro.experiment import DeployedWorld, DeviceSpec, VIEmulation
from repro.geometry import Point
from repro.net import Crash, CrashPoint, CrashSchedule
from repro.switches import Switches
from repro.vi import CounterProgram, ScriptedClient, VIWorld, VNSite

#: The steps a lockstep site takes once per virtual round.
STEPS = ("step_begin", "step_ballot", "step_end")


def stores_of(world: VIWorld, vn_id: int) -> set:
    """The shared stores a site's live replicas are on (``None`` for a
    replica on a private one)."""
    return {shared_store(replica.core)
            for replica in world.replicas_of(vn_id).values()}


@pytest.mark.parametrize("replicas", [2, 4])
def test_deployed_replicas_of_a_site_share_one_store(replicas):
    world = static_world(replicas)
    world.run_virtual_rounds(1)
    for site in world.sites:
        (store,) = stores_of(world, site.vn_id)
        assert store is not None and len(store.members) == replicas


@pytest.mark.parametrize("replicas", [2, 4])
def test_steady_rounds_step_each_site_once(replicas, monkeypatch):
    """Over 20 steady virtual rounds every store step and the program's
    transition run once per site per virtual round."""
    counts: dict[str, int] = {}
    count_calls(monkeypatch, SlottedChaCore, STEPS, counts)
    count_calls(monkeypatch, CounterProgram, ("step",), counts)
    world = static_world(replicas)
    world.run_virtual_rounds(2)
    counts.clear()
    world.run_virtual_rounds(20)
    sites = len(world.sites)
    assert counts == {name: 20 * sites for name in STEPS + ("step",)}
    assert all(world.availability(site.vn_id) == 1.0 for site in world.sites)


def test_a_crashed_replica_forks_alone(monkeypatch):
    """A replica that crashes mid-run leaves its site's store at its next
    core phase; its siblings stay on the store, still stepped once."""
    probe = static_world(4)
    crashed = next(iter(probe.devices))  # site 0's first replica
    rpv = probe.clock.rounds_per_virtual_round
    world = static_world(4, crashes=CrashSchedule(
        [Crash(crashed, 5 * rpv + 1, CrashPoint.AFTER_SEND)]))
    world.run_virtual_rounds(5)
    (store,) = stores_of(world, 0)
    world.run_virtual_rounds(1)
    assert crashed not in world.replicas_of(0)
    assert shared_store(world.devices[crashed].replica.core) is None
    assert stores_of(world, 0) == {store}
    assert len(store.members) == 3
    counts: dict[str, int] = {}
    count_calls(monkeypatch, SlottedChaCore, STEPS, counts)
    world.run_virtual_rounds(10)
    assert counts == {name: 10 * len(world.sites) for name in STEPS}
    world.check_replica_consistency(0)


@pytest.mark.parametrize("switches", [Switches(vi=True), Switches(core=True),
                                      Switches(engine=True)],
                         ids=["per-device", "dict-core", "engine-fallback"])
def test_only_the_phase_table_engine_forms_cohorts(switches):
    world = static_world(4, switches=switches)
    world.run_virtual_rounds(2)
    for site in world.sites:
        assert stores_of(world, site.vn_id) == {None}


class FreshStateCounter(CounterProgram):
    """The counter, its total held in a new one-item list per call."""

    def init_state(self):
        return [0]

    def emit(self, state, vr):
        return ("count", state[0])

    def step(self, state, vr, observation):
        return [super().step(state[0], vr, observation)]


def deployed_spec(program) -> ExperimentSpec:
    """Two sites of three deployed replicas each, ``program`` on both,
    and a scripted client just outside site 0's region."""
    sites = (VNSite(0, Point(0.0, 0.0)), VNSite(1, Point(6.0, 0.0)))
    devices = tuple(DeviceSpec(mobility=Point(x + dx, 0.1))
                    for x in (0.0, 6.0) for dx in (-0.1, 0.0, 0.1))
    client = DeviceSpec(mobility=Point(0.3, 0.0), client=ScriptedClient(
        {1: ("add", 5), 4: ("add", 9)}))
    return ExperimentSpec(
        protocol=VIEmulation(programs={0: program(), 1: program()}),
        world=DeployedWorld(sites=sites, devices=devices + (client,)),
        workload=WorkloadSpec(virtual_rounds=8))


def test_a_fresh_initial_state_per_replica_forms_no_cohort():
    """A shared store holds one checkpoint state; replicas whose
    program builds a new initial object per call keep private stores,
    and the run stays byte-identical to per-device dispatch."""
    cohort = run_with(deployed_spec(CounterProgram), Switches()).world
    assert {len(shared_store(replica.core).members)
            for site in cohort.sites
            for replica in cohort.replicas_of(site.vn_id).values()} == {3}
    spec = deployed_spec(FreshStateCounter)
    result = run_with(spec, Switches())
    world = result.world
    assert all(shared_store(replica.core) is None
               for site in world.sites
               for replica in world.replicas_of(site.vn_id).values())
    assert world.devices[0].replica.core.checkpoint_state == [14]
    assert observables(result) == observables(run_with(spec,
                                                       Switches(vi=True)))
