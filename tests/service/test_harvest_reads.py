"""Serving a world reads its histories from the shared chain only.

The read-side twin of the "zero ``History.__init__`` calls" pin in
``tests/core/test_history_engine.py``: a world served to completion —
per-decision value read and agreement verdict in ``_harvest``, then the
finish-time agreement and validity checkers — leaves every output
history bare (no entry tuple, no lookup table), never calls
``HistoryChain.entries`` inside a tick, and visits a number of chain
links that grows linearly with the number of instances.
"""

from __future__ import annotations

import gc

import pytest

from repro import (
    CHA,
    ClusterWorld,
    EnvironmentSpec,
    ExperimentSpec,
    MetricsSpec,
    WorkloadSpec,
)
from repro.core.ballot import Ballot
from repro.core.history import (
    ROOT_CHAIN,
    History,
    HistoryChain,
    new_chain_generation,
)
from repro.net import RandomLossAdversary
from repro.service.driver import WorldDriver
from repro.switches import Switches
from repro.types import BOTTOM

pytestmark = pytest.mark.fast

NODES = 6


def _driver(instances: int, *, lossy: bool = False,
            switches: Switches = Switches()) -> WorldDriver:
    environment = EnvironmentSpec()
    world = ClusterWorld(n=NODES)
    if lossy:  # ⊥ outputs and gaps until the channel stabilises
        environment = EnvironmentSpec(
            adversary=RandomLossAdversary(p_drop=0.2, seed=5))
        world = ClusterWorld(n=NODES, rcf=3 * (instances // 2))
    return WorldDriver(ExperimentSpec(
        protocol=CHA(), world=world, environment=environment,
        workload=WorkloadSpec(instances=instances),
        metrics=MetricsSpec(invariants=("agreement", "validity")),
        keep_trace=False, switches=switches,
    ))


def _serve(driver: WorldDriver) -> list[dict]:
    events = []
    while not driver.complete:
        events.extend(driver.tick())
    return events


@pytest.mark.parametrize("lossy", [False, True], ids=["benign", "lossy"])
def test_served_world_materialises_no_history(monkeypatch, lossy):
    calls = []
    entries = HistoryChain.entries
    monkeypatch.setattr(HistoryChain, "entries",
                        lambda self: calls.append(self) or entries(self))
    driver = _driver(40, lossy=lossy)
    events = _serve(driver)
    decisions = [e for e in events if e["type"] == "decision"]
    assert len(decisions) == 40
    assert all(d["agreement"] == "ok" for d in decisions)
    assert any(d["value"] is not None for d in decisions)
    assert lossy == any(d["bottom"] for d in decisions)
    assert driver.result.invariants == {"agreement": "ok", "validity": "ok"}
    assert calls == []
    histories = [out for proc in driver.stepper.processes.values()
                 for _, out in proc.outputs if out is not BOTTOM]
    assert histories
    assert all(h._lookup is None and h._entries is None for h in histories)


class _CountingSlot:
    """Stands in for a ``__slots__`` descriptor and counts its reads."""

    def __init__(self, slot) -> None:
        self.slot = slot
        self.reads = 0
        self.counting = False

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        if self.counting:
            self.reads += 1
        return self.slot.__get__(obj, owner)

    def __set__(self, obj, value) -> None:
        self.slot.__set__(obj, value)


def _links_visited_by_harvest(monkeypatch, instances: int) -> int:
    """Chain links the harvest path examines over one served run.

    Every walk (``HistoryChain.prefix``, the checkers' inline ones)
    tests a link's ``anchor`` before stepping past it, so reads of that
    slot count the links looked at whoever does the walking.
    """
    anchor = _CountingSlot(HistoryChain.__dict__["anchor"])
    harvest = WorldDriver._harvest

    def flagged_harvest(self):
        anchor.counting = True
        try:
            return harvest(self)
        finally:
            anchor.counting = False

    with monkeypatch.context() as patch:
        patch.setattr(HistoryChain, "anchor", anchor)
        patch.setattr(WorldDriver, "_harvest", flagged_harvest)
        _serve(_driver(instances))
    return anchor.reads


def test_harvest_visits_links_linearly_in_instances(monkeypatch):
    at_k = _links_visited_by_harvest(monkeypatch, 30)
    at_2k = _links_visited_by_harvest(monkeypatch, 60)
    assert at_k > 0
    # A constant number of links per decision: doubling the run doubles
    # the count (an O(k) read per decision would quadruple it).
    assert at_2k == 2 * at_k
    assert at_k <= 30 * (NODES + 2)


def test_served_verdicts_stay_on_the_twin_the_world_was_built_on(
        monkeypatch):
    """The per-decision agreement checker runs on the stepper's switches:
    a world whose spec names the reference history twin gets every
    verdict from ``agrees_with_reference``; a default world never calls
    it."""
    calls = []
    monkeypatch.setattr(
        History, "agrees_with_reference",
        lambda self, other: calls.append(self) or True)
    for switches, called in ((Switches(), False),
                             (Switches(history=True), True)):
        calls.clear()
        driver = _driver(12, switches=switches)
        events = _serve(driver)
        decisions = [e for e in events if e["type"] == "decision"]
        assert len(decisions) == 12
        assert all(d["agreement"] == "ok" for d in decisions)
        assert len(calls) >= 12 if called else calls == []


def _tracked() -> int:
    gc.collect()
    return len(gc.get_objects())


def test_served_world_holds_its_tracked_objects_flat():
    """The ROADMAP memory item's plateau, for what a served world can
    bound: 24 nodes in one cohort store, 20 000 instances, a bounded
    decision log.  A plain
    CHA core keeps, by definition (it never collects), one interned
    chain link and the adopted wire ballot per instance (as the
    reference core does), so the count is taken net of that one shared
    spine and those ballots — measured here, not assumed — and
    everything else (per-node logs, the driver's decision log and index,
    the bus, the ledger) must stay within ±5 % between instance 5 000
    and instance 20 000."""
    new_chain_generation()
    before = _tracked()
    link = ROOT_CHAIN
    ballots = []
    for k in range(1, 1001):
        link = link.child(k, f"v{k:06d}")
        ballots.append(Ballot(f"v{k:06d}", k - 1))
    per_instance = (_tracked() - before) / 1000
    del link, ballots

    driver = WorldDriver(ExperimentSpec(
        protocol=CHA(), world=ClusterWorld(n=24),
        workload=WorkloadSpec(instances=20_000),
        metrics=MetricsSpec(invariants=()),
        keep_trace=False,
    ), rounds_per_tick=30, decision_log_limit=64)
    while driver.decisions_published < 5_000:
        driver.tick()
    early = _tracked()
    while driver.decisions_published < 19_990:
        driver.tick()
    late = _tracked()
    grown = driver.decisions_published - 5_000
    assert len(driver.snapshot()["recent_decisions"]) == 64
    assert all(len(proc.outputs) >= 19_990
               for proc in driver.stepper.processes.values())
    assert abs(late - grown * per_instance - early) <= 0.05 * early, (
        early, late, per_instance)
    # The 24 lockstep cores keep one cohort store.
    cohorts = {id(proc.core._c) for proc in driver.stepper.processes.values()}
    assert len(cohorts) == 1
