"""The veto sharing rule: a round's equal veto payloads are one object.

Every veto payload is built by :func:`repro.core.cha._veto`, a
round-scoped intern keyed type-exactly by ``(tag, instance, phase)``, so
the reference engine (one ``send`` per node), the reference core and the
ensemble / cohort fast paths share alike — the byte-identity of the
differential suites rests on it, and the wire observer sizes each
shared payload once.  The sentinel runs one world per family over the
engine, core and history corners (and the VI axis for the VI world)
and checks, round by round, that equal payloads are one object, that
no payload object outlives its round, and that the corners' traces
pickle alike.

Marked ``core_differential`` and ``vi_differential`` so both PR gates
run it.
"""

from __future__ import annotations

import pickle
from collections import defaultdict

import pytest

from _switches import corners, run_with
from repro import CHA, ClusterWorld, ExperimentSpec, WorkloadSpec
from repro.contention import LeaderElectionCM
from repro.core import CHAEnsemble, CHAProcess, cha
from repro.core.ballot import VetoPayload
from repro.core.history import _intern_key
from repro.experiment import (DeployedWorld, DeviceSpec, EnvironmentSpec,
                              MetricsSpec, TwoPhaseCHA, VIEmulation, observers)
from repro.experiment.runner import run
from repro.geometry import Point
from repro.net import (Crash, CrashSchedule, RadioSpec, RandomLossAdversary,
                       Simulator, WaypointMobility, WindowAdversary)
from repro.vi import CounterProgram, VNSite
from repro.vi.client import ScriptedClient

pytestmark = [pytest.mark.fast, pytest.mark.core_differential,
              pytest.mark.vi_differential]


def _key(payload: VetoPayload) -> tuple:
    return (_intern_key(payload.tag), payload.instance, payload.phase)


def _assert_shared(trace) -> int:
    """Every round's equal veto payloads are one object, and none is
    another round's; returns the most senders of one payload."""
    seen: set[int] = set()
    most = 0
    for record in trace:
        objects: dict[tuple, set[int]] = defaultdict(set)
        senders: dict[tuple, int] = defaultdict(int)
        for message in record.broadcasts.values():
            if type(message.payload) is VetoPayload:
                objects[_key(message.payload)].add(id(message.payload))
                senders[_key(message.payload)] += 1
        for key, ids in objects.items():
            assert len(ids) == 1, (record.round, key)
            assert not ids & seen, (record.round, key)
            seen |= ids
            most = max(most, senders[key])
    return most


def _lossy_cluster():
    return ExperimentSpec(
        protocol=CHA(), world=ClusterWorld(n=8, rcf=15),
        environment=EnvironmentSpec(
            adversary=RandomLossAdversary(p_drop=0.4, seed=3)),
        workload=WorkloadSpec(instances=8))


def _two_phase_cluster():
    return ExperimentSpec(
        protocol=TwoPhaseCHA(), world=ClusterWorld(n=6, rcf=10),
        environment=EnvironmentSpec(
            adversary=RandomLossAdversary(p_drop=0.4, p_false=0.1, seed=7)),
        workload=WorkloadSpec(instances=8))


def _lossy_vi_world():
    """Site 0's deployed replicas at nodes 0, 2 and 3 with a walker at
    node 1 that parks in the region and joins: a cohort and a lone
    replica of one virtual node veto in one round, each carrying its
    own (equal) tag object, so the first to veto in node order names
    the payload's tag on every path.  Node 0 crashes after the join."""
    sites = (VNSite(0, Point(0.0, 0.0)), VNSite(1, Point(6.0, 0.0)))
    devices = (
        DeviceSpec(mobility=Point(-0.1, 0.1)),
        DeviceSpec(mobility=WaypointMobility(
            Point(0.0, 3.0), [Point(0.0, 0.05)], speed=0.05),
            initially_active=False),
        DeviceSpec(mobility=Point(0.1, 0.1)),
        DeviceSpec(mobility=Point(0.05, -0.1)),
        DeviceSpec(mobility=Point(5.9, 0.1)),
        DeviceSpec(mobility=Point(6.1, 0.1)),
        DeviceSpec(mobility=Point(0.3, 0.0), client=ScriptedClient(
            {2: ("add", 7), 5: ("add", 11)})),
    )
    return ExperimentSpec(
        protocol=VIEmulation(programs={0: CounterProgram(),
                                       1: CounterProgram()}),
        world=DeployedWorld(sites=sites, devices=devices, rcf=150),
        environment=EnvironmentSpec(adversary=WindowAdversary(
            RandomLossAdversary(p_drop=0.3, p_false=0.2, seed=5),
            until=140), crashes=CrashSchedule([Crash(0, 100)])),
        workload=WorkloadSpec(virtual_rounds=12),
        metrics=MetricsSpec(metrics=("availability",), invariants=()))


SPECS = {"cha-lossy": (_lossy_cluster, corners("engine", "core", "history")),
         "two-phase-lossy": (_two_phase_cluster,
                             corners("engine", "core", "history")),
         "vi-lossy": (_lossy_vi_world,
                      corners("engine", "core", "history", "vi"))}


@pytest.mark.parametrize("name", list(SPECS))
def test_equal_vetoes_of_a_round_are_one_object(name):
    factory, switch_corners = SPECS[name]
    pickles = set()
    for switches in switch_corners:
        result = run_with(factory(), switches)
        assert _assert_shared(result.trace) >= 2, switches  # not vacuous
        pickles.add(pickle.dumps(result.trace))
    assert len(pickles) == 1


def _shifted_ensembles(switches):
    """Three ensembles of one tag in one lossy cluster: the second on a
    phase grid shifted by a round, the third powered on an instance
    late (same phase as the first, one instance behind)."""
    sim = Simulator(spec=RadioSpec(r1=1.0, r2=1.5, rcf=20),
                    cms={"C": LeaderElectionCM(stable_round=0)},
                    adversary=RandomLossAdversary(p_drop=0.4, seed=11),
                    switches=switches)
    groups = []
    for g, (start, power_on) in enumerate(((0, 0), (1, 0), (3, 3))):
        procs = [CHAProcess(propose=lambda k, i=i: f"v{i}.{k}",
                            start_round=start, switches=switches)
                 for i in range(4)]
        for i, proc in enumerate(procs):
            sim.add_node(proc, Point(0.02 * (4 * g + i), 0.0),
                         start_round=power_on)
        groups.append(procs)
    if not switches.core:
        for procs in groups:
            sim.add_ensemble(CHAEnsemble(procs))
    sim.run(36)
    return sim.trace


def test_shifted_grid_ensembles_of_one_tag_share_by_key():
    traces = [_shifted_ensembles(s)
              for s in corners("engine", "core", "history")]
    for trace in traces:
        assert _assert_shared(trace) >= 2
        # The late ensemble vetoes one instance behind the first in the
        # same phase: equal tags and phases, two objects.
        assert any(len({p.instance for p in rec_vetoes}) > 1
                   and len({p.phase for p in rec_vetoes}) == 1
                   for rec_vetoes in (
                       [m.payload for m in record.broadcasts.values()
                        if type(m.payload) is VetoPayload]
                       for record in trace))
    assert len({pickle.dumps(trace) for trace in traces}) == 1


@pytest.mark.parametrize("a,b", [(1, True), (0, False), (1, 1.0),
                                 (("vn", 0), ("vn", False)),
                                 (("vn", 1), ("vn", 1.0))])
def test_equal_tags_of_different_types_never_share(a, b):
    assert a == b
    first, second = cha._veto(7, a, 2, 1), cha._veto(7, b, 2, 1)
    assert first is not second
    assert first.tag is a and second.tag is b
    assert cha._veto(7, a, 2, 1) is first
    assert cha._veto(7, b, 2, 1) is second


def test_a_non_internable_tag_shares_by_identity():
    tag, twin = (("vn", Point(0.0, 0.0)) for _ in range(2))
    assert tag == twin and tag is not twin
    assert cha._veto(3, tag, 1, 2) is cha._veto(3, tag, 1, 2)
    assert cha._veto(3, twin, 1, 2) is not cha._veto(3, tag, 1, 2)


def test_the_intern_holds_one_round():
    old = cha._veto(10, "cha", 4, 1)
    assert cha._veto(10, "cha", 4, 1) is old
    new = cha._veto(11, "cha", 4, 1)
    assert new is not old and new == old
    assert list(cha._vetoes.values()) == [new]
    assert cha._veto(10, "cha", 4, 1) is not old  # gone, not restored


def test_a_lossy_cluster_builds_and_sizes_each_veto_once(monkeypatch):
    """The count gate: on a lossy cluster, one ``VetoPayload`` is built
    per veto round and key however many members veto, and the wire
    observer calls ``wire_size`` once per distinct payload object per
    round (its metrics still equal the trace's rescan)."""
    built: dict[tuple, int] = defaultdict(int)
    init = VetoPayload.__init__

    def counted_init(self, tag, instance, phase):
        built[(cha._veto_round, tag, instance, phase)] += 1
        init(self, tag, instance, phase)

    sized = [0]
    size_of = observers.wire_size

    def counted_size(payload):
        sized[0] += 1
        return size_of(payload)

    monkeypatch.setattr(VetoPayload, "__init__", counted_init)
    monkeypatch.setattr(observers, "wire_size", counted_size)
    result = run(ExperimentSpec(
        protocol=CHA(), world=ClusterWorld(n=30, rcf=30),
        environment=EnvironmentSpec(
            adversary=RandomLossAdversary(p_drop=0.3, seed=2)),
        workload=WorkloadSpec(instances=15),
        metrics=MetricsSpec(metrics=("total_broadcasts", "max_message_size",
                                     "mean_message_size"), invariants=())))
    trace = result.trace
    keys = {(record.round, *_key(m.payload)) for record in trace
            for m in record.broadcasts.values()
            if type(m.payload) is VetoPayload}
    vetoes = sum(type(m.payload) is VetoPayload for record in trace
                 for m in record.broadcasts.values())
    assert vetoes >= 5 * len(keys) > 0   # many senders per payload
    assert max(built.values()) == 1 and len(built) == len(keys)
    assert sized[0] == sum(len({id(m.payload)
                                for m in record.broadcasts.values()})
                           for record in trace)
    assert result.metrics["total_broadcasts"] == trace.total_broadcasts()
    assert result.metrics["max_message_size"] == trace.max_message_size()
    assert result.metrics["mean_message_size"] == trace.mean_message_size()

