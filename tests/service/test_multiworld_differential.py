"""The multi-world service's determinism guarantee, pinned differentially.

Eight worlds served on one loop — ticked *interleaved*, with per-world
scripted populations, a roving session hopping worlds mid-run, and
read-model traffic (watches, prefix subscriptions) mixed in — must each
stay byte-identical to an independent batch :func:`repro.run` of the
same spec with that world's accepted proposal schedule replayed.  This
is strictly stronger than the single-world differential: it proves
worlds sharing a loop (and the interning generation machinery under the
history chains) cannot perturb each other, across the
engine/channel/history/core reference-switch matrix.
"""

from __future__ import annotations

import asyncio

import pytest

from _switches import MODE_IDS, MODES, observables, replay
from _worlds import cluster_spec
from repro.experiment import MetricsSpec
from repro.experiment.runner import run
from repro.net import RandomLossAdversary, WindowAdversary
from repro.service import ConsensusService, ProposalLedger, ServiceConfig
from repro.switches import Switches

pytestmark = pytest.mark.fast

WORLDS = 8
INSTANCES = 10


def _spec_factory(switches: Switches = Switches()):
    def make():
        return cluster_spec(
            "cha", n=5, rcf=24, instances=INSTANCES, switches=switches,
            adversary=WindowAdversary(RandomLossAdversary(
                p_drop=0.25, p_false=0.15, seed=9), until=16),
            metrics=MetricsSpec(
                metrics=("rounds", "total_broadcasts", "decided_instances"),
                invariants=("all",)))
    return make


def _serve_worlds(spec_factory, *, worlds: int = WORLDS,
                  rounds_per_tick: int = 3):
    """Serve ``worlds`` interleaved worlds under scripted populations.

    Every world gets one closed-loop client (seed proposals before
    round 1, reactions to its own odd-instance decisions); even worlds
    additionally get a node-targeted proposal.  A roving session starts
    on w1 watching instance 2, hops to w3 mid-run (``attach_world``),
    subscribes to a value prefix there, and lands one proposal — so the
    read models and the session re-binding run *during* the measured
    interleaving.  Returns ``(served, schedules)`` by world name.
    """
    service = ConsensusService(
        spec_factory(),
        ServiceConfig(rounds_per_tick=rounds_per_tick, worlds=worlds),
    )
    names = [f"w{i + 1}" for i in range(worlds)]
    clients = {}
    for index, name in enumerate(names):
        client = service.connect(client=f"script-{name}", world=name)
        client.drain()  # the catch-up welcome
        client.propose(f"{name}.seed")
        if index % 2 == 1:
            client.propose(f"{name}.targeted", instance=2, node=index % 5)
        clients[name] = client
    rover = service.connect(client="rover", world="w1")
    rover.drain()
    rover.watch_instance(2)
    hopped = worlds < 3  # nowhere to hop in tiny configurations
    while any(not entry.driver.complete for entry in service.registry):
        service.tick_all()
        for name, client in clients.items():
            driver = service.registry.get(name).driver
            for event in client.drain():
                if (event["type"] == "decision"
                        and event["instance"] % 2 == 1
                        and driver.ledger.next_open <= INSTANCES):
                    client.propose(f"{name}.react.{event['instance']}")
        if (not hopped
                and service.registry.get("w1").driver.current_round >= 9):
            rover.attach_world("w3")
            rover.drain()
            rover.subscribe_prefix("w3.react")
            if (service.registry.get("w3").driver.ledger.next_open
                    <= INSTANCES):
                rover.propose("w3.rover")
            hopped = True
        rover.drain()
    assert hopped, "the rover must re-bind while worlds are mid-run"
    rover.close()
    served = {entry.name: observables(entry.driver.result)
              for entry in service.registry}
    schedules = {entry.name: entry.driver.ledger.schedule()
                 for entry in service.registry}
    return served, schedules


@pytest.mark.parametrize("mode", MODES, ids=MODE_IDS)
def test_eight_worlds_each_equal_batch_across_switches(mode):
    spec_factory = _spec_factory(mode)
    served, schedules = _serve_worlds(spec_factory)
    assert len(served) == WORLDS
    # The scripts diverge per world (different seed values, different
    # reaction instants), so this is 8 genuinely distinct replays.
    assert len(set(schedules.values())) > 1
    for name in served:
        assert schedules[name], f"{name}: the script must land proposals"
        assert served[name] == replay(spec_factory, schedules[name]), name


@pytest.mark.parametrize(
    "history_ref,core_ref",
    [(True, False), (False, True), (True, True)],
    ids=["reference-history", "reference-core", "reference-both"])
def test_worlds_equal_batch_with_history_and_core_switches(
        history_ref, core_ref):
    spec_factory = _spec_factory(Switches(history=history_ref,
                                          core=core_ref))
    served, schedules = _serve_worlds(spec_factory, worlds=4)
    for name in served:
        assert served[name] == replay(spec_factory, schedules[name]), name


def test_interleaved_worlds_match_a_solo_served_world():
    """A world served alone and the same scripted world served amid
    seven siblings produce identical bytes — the interleaving (and the
    other worlds' traffic) is invisible to each world."""
    spec_factory = _spec_factory()
    solo, solo_schedules = _serve_worlds(spec_factory, worlds=1)
    many, many_schedules = _serve_worlds(spec_factory)
    # w1 runs the identical script in both configurations (the rover
    # starts on w1 in both and proposes only after hopping away).
    assert solo_schedules["w1"] == many_schedules["w1"]
    assert solo["w1"] == many["w1"]


def test_lazily_created_world_replays_batch():
    """A world born mid-run via ``create_world`` (with a nodes override)
    replays byte-identically against the template spec with the same
    override — lazy creation is not a special world."""
    spec_factory = _spec_factory()
    service = ConsensusService(
        spec_factory(), ServiceConfig(rounds_per_tick=3, worlds=1))
    pilot = service.connect(client="pilot")
    pilot.drain()
    # Let w1 get ahead so the new world is born into a half-run service.
    for _ in range(3):
        service.tick_all()
    pilot.create_world(world="late", nodes=4, request_id="c")
    created = [e for e in pilot.drain() if e["type"] == "world-created"]
    assert created and created[0]["world"] == "late"
    pilot.attach_world("late")
    pilot.drain()
    pilot.propose("late.seed")
    while any(not entry.driver.complete for entry in service.registry):
        service.tick_all()
    late = service.registry.get("late")
    batch_spec = spec_factory().override(
        world__n=4,
        protocol__proposer_factory=ProposalLedger.scripted(
            late.driver.ledger.schedule()))
    assert observables(late.driver.result) == observables(run(batch_spec))


def test_a_failing_world_ends_alone_and_its_siblings_equal_batch():
    """A tick that raises ends its own world with a ``world-failed``
    event; the sibling worlds run to completion, each equal to its
    batch replay."""
    spec_factory = _spec_factory()

    async def scenario():
        service = ConsensusService(spec_factory(),
                                   ServiceConfig(rounds_per_tick=3, worlds=3))
        watcher = service.connect(client="watcher", world="w2")
        watcher.drain()
        failing = service.registry.get("w2").driver
        step = failing.stepper.step

        def step_until_round_9(rounds):
            if failing.current_round >= 9:
                raise RuntimeError("boom")
            return step(rounds)

        failing.stepper.step = step_until_round_9
        results = await service.run_worlds()
        events = watcher.drain()
        drivers = {entry.name: entry.driver for entry in service.registry}
        await service.shutdown()
        return results, events, drivers

    results, events, drivers = asyncio.run(scenario())
    assert sorted(results) == ["w1", "w3"]
    last = {key: value for key, value in events[-1].items() if key != "seq"}
    assert last == {"type": "world-failed", "world": "w2", "round": 9,
                    "error": "RuntimeError: boom"}
    assert drivers["w2"].complete and drivers["w2"].result is None
    for name in ("w1", "w3"):
        assert observables(results[name]) == replay(
            spec_factory, drivers[name].ledger.schedule()), name
