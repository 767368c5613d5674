"""The served harvest reads each decision once per cohort store.

Nodes that share one cohort store log the same record, so
``WorldDriver._harvest`` reads a store's record through its
lowest-numbered member and counts it for every member.  Two pins:

* the count gate — a 24-node lockstep CHA world builds one output per
  harvested instance (one store), not one per node;
* equivalence — on worlds that fork (seeded loss before ``rcf``, a
  crash wave, and outputs overwritten through the log view so stores
  split and some nodes disagree or output ⊥), every ``decision`` event
  equals what the per-node loop below — the harvest as it was before
  stores were grouped — builds from the same state.

A crashed node stops logging, so the harvest waits only for the live
nodes: a served crash wave publishes every instance, and what it
publishes matches the batch replay's outputs.
"""

from __future__ import annotations

import pytest
from _cores import count_calls

from repro import (
    CHA,
    ClusterWorld,
    EnvironmentSpec,
    ExperimentSpec,
    MetricsSpec,
    TwoPhaseCHA,
    WorkloadSpec,
)
from repro.core import slotted
from repro.core.history import History
from repro.core.slotted import SlottedChaCore, shared_store
from repro.core.spec import check_agreement
from repro.errors import SpecViolation
from repro.experiment.runner import run
from repro.faults import CrashWave, plan
from repro.net import RandomLossAdversary
from repro.service.driver import WorldDriver
from repro.types import BOTTOM

pytestmark = pytest.mark.fast


def _serve(driver: WorldDriver) -> list[dict]:
    events = []
    while not driver.complete:
        events.extend(driver.tick())
    return [event for event in events if event["type"] == "decision"]


def test_harvest_reads_each_decision_once_per_store(monkeypatch):
    driver = WorldDriver(ExperimentSpec(
        protocol=CHA(), world=ClusterWorld(n=24),
        workload=WorkloadSpec(instances=30),
        metrics=MetricsSpec(invariants=()),
        keep_trace=False,
    ))
    counts: dict[str, int] = {}
    count_calls(monkeypatch, SlottedChaCore, ("_output_of",), counts)
    harvest = WorldDriver._harvest
    in_harvest = []

    def counted_harvest(self):
        before = counts.get("_output_of", 0)
        events = harvest(self)
        stores = {id(shared_store(proc.core))
                  for proc in self.stepper.processes.values()}
        in_harvest.append((counts.get("_output_of", 0) - before,
                           len(events), len(stores)))
        return events

    monkeypatch.setattr(WorldDriver, "_harvest", counted_harvest)
    decisions = _serve(driver)
    assert len(decisions) == 30
    assert all(d["decided"] == 24 and d["bottom"] == 0 for d in decisions)
    assert all(d["agreement"] == "ok" for d in decisions)
    # One store throughout, read once per harvested instance.
    assert {stores for _, _, stores in in_harvest} == {1}
    assert sum(calls for calls, _, _ in in_harvest) == 30
    assert all(calls == harvested for calls, harvested, _ in in_harvest)


def _per_node_ready(driver: WorldDriver) -> int:
    """How far every live node has logged: a crashed node stops logging."""
    sim = driver.stepper.simulator
    return min(len(proc.outputs)
               for node, proc in driver.stepper.processes.items()
               if sim.alive(node))


def _per_node_decisions(driver: WorldDriver, start: int,
                        ready: int) -> list[dict]:
    """The harvest's decision events as it built them node by node, each
    instance's rows from the nodes that logged it."""
    logs = [(node, proc.outputs)
            for node, proc in driver.stepper.processes.items()]
    events = []
    for idx in range(start, ready):
        rows = {node: [log[idx]] for node, log in logs if idx < len(log)}
        instance = next(iter(rows.values()))[0][0]
        speaker = value = None
        decided = 0
        for node, ((_, out),) in rows.items():
            if out is not BOTTOM:
                decided += 1
                if speaker is None or node < speaker:
                    speaker, value = node, out(instance)
        try:
            check_agreement(rows, switches=driver.stepper.switches)
        except SpecViolation as exc:
            verdict = f"violated: {exc}"
        else:
            verdict = "ok"
        events.append({
            "type": "decision", "world": driver.name, "instance": instance,
            "round": driver.current_round, "value": value,
            "decided": decided, "bottom": len(logs) - decided,
            "agreement": verdict,
        })
    return events


def _tamper(driver: WorldDriver, idx: int) -> None:
    """Overwrite some nodes' output at log position ``idx`` through the
    view (which forks each out of its store): one outputs ⊥, one a
    history that disagrees at instance 1, by the position's residue."""
    procs = driver.stepper.processes
    k, out = procs[0].outputs[idx]
    logged = [node for node, proc in procs.items() if idx < len(proc.outputs)]
    if idx % 3 == 1:
        procs[logged[(5 * idx) % len(logged)]].outputs[idx] = (k, BOTTOM)
    if idx % 4 == 2 and out is not BOTTOM:
        forged = History(out.length, {**dict(out.items()), 1: "forged"})
        procs[logged[(7 * idx + 1) % len(logged)]].outputs[idx] = (k, forged)


@pytest.mark.parametrize("protocol", [CHA(), TwoPhaseCHA()],
                         ids=["cha", "two-phase"])
@pytest.mark.parametrize("seed", [1, 2])
def test_per_store_harvest_equals_the_per_node_loop(monkeypatch, protocol,
                                                    seed):
    driver = WorldDriver(ExperimentSpec(
        protocol=protocol, world=ClusterWorld(n=12, rcf=60),
        environment=EnvironmentSpec(
            adversary=RandomLossAdversary(p_drop=0.005, seed=seed)),
        workload=WorkloadSpec(instances=40),
        faults=plan(CrashWave(fraction=0.1, horizon=100), seed=seed),
        metrics=MetricsSpec(invariants=()),
        keep_trace=False,
    ))
    harvest = WorldDriver._harvest
    compared = []
    groupings = set()

    def checked_harvest(self):
        start = self._harvested
        ready = _per_node_ready(self)
        for idx in range(start, ready):
            _tamper(self, idx)
        expected = _per_node_decisions(self, start, ready)
        groupings.add(len({id(shared_store(proc.core) or proc)
                           for proc in self.stepper.processes.values()}))
        events = harvest(self)
        assert events == expected
        compared.extend(events)
        return events

    monkeypatch.setattr(WorldDriver, "_harvest", checked_harvest)
    decisions = _serve(driver)
    assert decisions == compared
    # The run exercised shared stores, forks, split counts and
    # violated verdicts, not just the lockstep case.
    assert max(groupings) > 1 and min(groupings) < 12
    assert any(0 < d["bottom"] < 12 for d in compared)
    assert any(d["agreement"].startswith("violated") for d in compared)
    assert any(d["agreement"] == "ok" for d in compared)


def _crash_wave(protocol) -> ExperimentSpec:
    return ExperimentSpec(
        protocol=protocol, world=ClusterWorld(n=12),
        workload=WorkloadSpec(instances=40),
        faults=plan(CrashWave(fraction=0.1, horizon=30), seed=1),
        metrics=MetricsSpec(invariants=()),
        keep_trace=False,
    )


@pytest.mark.parametrize("protocol", [CHA(), TwoPhaseCHA()],
                         ids=["cha", "two-phase"])
def test_served_crash_wave_publishes_what_the_batch_replay_decides(protocol):
    """A crashed node stops logging; the served world must still publish
    every instance, each with what the batch replay's outputs say."""
    spec = _crash_wave(protocol)
    served = [(d["instance"], d["value"], d["decided"],
               d["agreement"].split(":")[0])
              for d in _serve(WorldDriver(spec))]
    outputs = run(spec).outputs
    assert any(len(log) < 40 for log in outputs.values()), "nobody crashed"
    replayed = []
    for k in range(1, 41):
        rows = {node: [row for row in log if row[0] == k]
                for node, log in outputs.items()}
        said = [out for node in sorted(rows) for _, out in rows[node]
                if out is not BOTTOM]
        try:
            check_agreement(rows)
        except SpecViolation:
            verdict = "violated"
        else:
            verdict = "ok"
        replayed.append((k, said[0](k) if said else None, len(said), verdict))
    assert served == replayed


def test_a_live_short_log_holds_the_harvest_back(monkeypatch):
    """Only liveness lets the harvest pass a short log: were the crashed
    node alive, the instances it has not logged would still be open."""
    driver = WorldDriver(_crash_wave(CHA()))
    monkeypatch.setattr(driver.stepper.simulator, "alive",
                        lambda node, r=None: True)
    decisions = _serve(driver)
    shortest = min(len(proc.outputs)
                   for proc in driver.stepper.processes.values())
    assert len(decisions) == shortest < 40


@pytest.mark.parametrize("tamper", [False, True],
                         ids=["plain", "tampered-prefix"])
@pytest.mark.parametrize("protocol", [CHA(), TwoPhaseCHA()],
                         ids=["cha", "two-phase"])
def test_a_world_that_rejoins_harvests_as_its_batch_replay(monkeypatch,
                                                           protocol, tamper):
    """Seeded loss until ``rcf`` forks every node; past it they rejoin
    one store, each with its own log prefix.  Every tick's decisions
    equal the per-node loop's, and the whole run equals what the batch
    replay's outputs say (decided / ⊥ counts, agreement rows).  With
    ``tamper``, a member about to rejoin first has its last output
    overwritten with ⊥, so its prefix differs from the store's log where
    the harvest has not read it yet (no batch replay then)."""
    def spec():  # a fresh adversary: a run consumes its stream
        return ExperimentSpec(
            protocol=protocol, world=ClusterWorld(n=12, rcf=45),
            environment=EnvironmentSpec(
                adversary=RandomLossAdversary(p_drop=0.1, seed=3)),
            workload=WorkloadSpec(instances=40),
            metrics=MetricsSpec(invariants=()),
            keep_trace=False,
        )

    driver = WorldDriver(spec())
    harvest = WorldDriver._harvest
    merged = []

    def checked_harvest(self):
        expected = _per_node_decisions(self, self._harvested,
                                       _per_node_ready(self))
        events = harvest(self)
        assert events == expected
        merged.append(sum(proc.core._pre is not None
                          for proc in self.stepper.processes.values()))
        return events

    monkeypatch.setattr(WorldDriver, "_harvest", checked_harvest)
    rejoin = slotted.rejoin

    def tampering_rejoin(lead, cores):
        for core in cores:
            if core._c is not lead._c and len(core.outputs):
                core.outputs[-1] = (core.outputs[-1][0], BOTTOM)
        return rejoin(lead, cores)

    if tamper:
        monkeypatch.setattr(slotted, "rejoin", tampering_rejoin)
    served = [(d["instance"], d["value"], d["decided"], d["bottom"],
               d["agreement"]) for d in _serve(driver)]
    assert max(merged) >= 6, "the world must rejoin one store"
    if tamper:
        assert any(0 < bottom < 12 for *_, bottom, _ in served)
        return
    outputs = run(spec()).outputs
    replayed = []
    for k in range(1, 41):
        rows = {node: [row for row in log if row[0] == k]
                for node, log in outputs.items()}
        said = [out for node in sorted(rows) for _, out in rows[node]
                if out is not BOTTOM]
        try:
            check_agreement(rows)
        except SpecViolation as exc:
            verdict = f"violated: {exc}"
        else:
            verdict = "ok"
        replayed.append((k, said[0](k) if said else None, len(said),
                         12 - len(said), verdict))
    assert served == replayed
    # Lossy instances output ⊥ everywhere, the rest decide everywhere.
    assert {bottom for *_, bottom, _ in served} == {0, 12}
