"""The service's determinism guarantee, pinned differentially.

A *served* world — sessions attaching mid-run, proposing into upcoming
instances, detaching again — must be byte-identical to a plain batch
:func:`repro.run` of the same spec with the accepted proposal schedule
replayed through ``protocol__proposer_factory``.  Identical means the
pickle of everything observable (trace, outputs, proposals, metrics,
invariant verdicts, violation contexts) matches byte for byte, across
the engine/channel/history switch corners the engine differential
suite uses.

The served side here drives :meth:`WorldDriver.tick` directly (the tick
is synchronous by design — the asyncio clock only decides *when* ticks
happen), with a scripted client population reacting to decision events,
so the accepted schedule is reproducible.
"""

from __future__ import annotations

import random

import pytest

from _switches import corners, observables
from repro import CHA, ClusterWorld, ExperimentSpec, WorkloadSpec
from repro.experiment import EnvironmentSpec, MetricsSpec, TwoPhaseCHA
from repro.experiment.runner import run
from repro.net import RandomLossAdversary, WindowAdversary
from repro.service import ConsensusService, ProposalLedger, ServiceConfig
from repro.switches import Switches

pytestmark = pytest.mark.fast

#: Every (engine, channel) corner — the switch matrix of
#: tests/net/test_engine_differential.py, production stack first.
MODES = corners("engine", "channel")
MODE_IDS = ["default", "ref-channel", "ref-engine", "ref-both"]

INSTANCES = 12


def _spec_factory(env_name: str, *, switches: Switches = Switches(),
                  protocol_factory=CHA):
    def make() -> ExperimentSpec:
        if env_name == "lossy":
            environment = EnvironmentSpec(adversary=WindowAdversary(
                RandomLossAdversary(p_drop=0.3, p_false=0.2, seed=5),
                until=20))
            rcf = 30
        else:
            environment = EnvironmentSpec()
            rcf = 0
        return ExperimentSpec(
            protocol=protocol_factory(),
            world=ClusterWorld(n=6, rcf=rcf),
            environment=environment,
            workload=WorkloadSpec(instances=INSTANCES),
            metrics=MetricsSpec(
                metrics=("rounds", "total_broadcasts", "decided_instances"),
                invariants=("all",),
            ),
            switches=switches,
        )
    return make


def _serve(spec_factory, *,
           rounds_per_tick: int = 3) -> tuple[bytes, tuple]:
    """Run a served world under a scripted client population.

    The script exercises every determinism-sensitive session behaviour:
    proposals queued before round 1 (default-next, node-targeted, and
    wildcard-instance), a session attaching mid-run, closed-loop
    proposals reacting to decision events, and a mid-run detach —
    then returns (observable bytes, the accepted proposal schedule).
    """
    service = ConsensusService(
        spec_factory(),
        ServiceConfig(rounds_per_tick=rounds_per_tick),
    )
    driver = service.driver
    first = service.connect(client="script-a")
    first.propose("alpha")                            # next open (1)
    first.propose("targeted", instance=2, node=3)     # one node's slot
    first.propose("wildcard", instance=3)             # every node's slot
    late = None
    while not driver.complete:
        driver.tick()
        if late is None and driver.current_round >= 9:
            late = service.connect(client="script-b")
            late.drain()  # consume the catch-up welcome
        for event in first.drain():
            if (event["type"] == "decision"
                    and event["instance"] % 2 == 0
                    and driver.ledger.next_open <= INSTANCES):
                first.propose(f"react.{event['instance']}")
        if (late is not None and not late.closed
                and driver.current_round >= 21):
            if driver.ledger.next_open <= INSTANCES:
                late.propose("parting-shot")
            late.bye()  # detach mid-run
    schedule = driver.ledger.schedule()
    first.close()
    return observables(driver.result), schedule


SESSIONS = 20
PROPOSALS = 3


def _serve_crowd(spec_factory, seed: int) -> tuple[bytes, tuple, int]:
    """Serve a flash crowd with seeded churn.

    ``SESSIONS`` closed-loop sessions attach before round 1; each
    proposes, reads its ack, waits for the decision of the instance the
    ack names, and proposes again, ``PROPOSALS`` times.  After each
    decision a seeded coin makes the session detach and re-attach as a
    new session.  Every proposal must be decided.  Returns (observable
    bytes, the accepted proposal schedule, the reconnect count).
    """
    rng = random.Random(seed)
    service = ConsensusService(spec_factory(), ServiceConfig())
    driver = service.driver
    clients = [service.connect(client=f"crowd-{i}")
               for i in range(SESSIONS)]
    awaited: dict[int, int] = {}
    decided = [0] * SESSIONS
    reconnects = 0
    for index, client in enumerate(clients):
        client.drain()  # the catch-up welcome
        client.propose(f"crowd-{index}.0")
    while not driver.complete:
        driver.tick()
        for index, client in enumerate(clients):
            for event in client.drain():
                if event["type"] == "ack":
                    awaited[index] = event["instance"]
                elif (event["type"] == "decision"
                        and event["instance"] == awaited.get(index)):
                    assert event["agreement"] == "ok"
                    del awaited[index]
                    decided[index] += 1
                    if decided[index] == PROPOSALS:
                        continue
                    if rng.random() < 0.5:
                        client.close()
                        client = clients[index] = service.connect(
                            client=f"crowd-{index}")
                        client.drain()
                        reconnects += 1
                    client.propose(f"crowd-{index}.{decided[index]}")
    assert decided == [PROPOSALS] * SESSIONS and not awaited
    assert service.sessions.peak == SESSIONS
    assert service.sessions.opened == SESSIONS + reconnects
    return observables(driver.result), driver.ledger.schedule(), reconnects


def _batch(spec_factory, schedule) -> bytes:
    """The equivalent batch run: the accepted schedule replayed."""
    spec = spec_factory().override(
        protocol__proposer_factory=ProposalLedger.scripted(schedule))
    return observables(run(spec))


@pytest.mark.parametrize("env_name", ["benign", "lossy"])
@pytest.mark.parametrize("mode", MODES, ids=MODE_IDS)
def test_served_equals_batch_across_switches(env_name, mode):
    spec_factory = _spec_factory(env_name, switches=mode)
    served, schedule = _serve(spec_factory)
    assert schedule, "the script must actually land proposals"
    assert served == _batch(spec_factory, schedule)


def test_served_schedule_invariant_under_switches():
    """The reference switches change *how* rounds are computed, never
    what decides — so the scripted population must land the identical
    proposal schedule whichever stack serves it."""
    schedules = {
        _serve(_spec_factory("lossy", switches=mode))[1] for mode in MODES
    }
    assert len(schedules) == 1


@pytest.mark.parametrize("history_ref", [False, True],
                         ids=["chain-history", "reference-history"])
def test_served_equals_batch_with_history_switch(history_ref):
    spec_factory = _spec_factory("lossy",
                                 switches=Switches(history=history_ref))
    served, schedule = _serve(spec_factory)
    assert served == _batch(spec_factory, schedule)


@pytest.mark.parametrize("rounds_per_tick", [1, 3, 7])
def test_served_equals_batch_across_tick_granularity(rounds_per_tick):
    """Tick chunking shifts *when* the script observes decisions (and
    therefore which instances its reactions land in), but each chunking
    still replays byte-identically against its own accepted schedule."""
    spec_factory = _spec_factory("benign")
    served, schedule = _serve(spec_factory, rounds_per_tick=rounds_per_tick)
    assert served == _batch(spec_factory, schedule)


@pytest.mark.parametrize("seed", [3, 11])
def test_churny_flash_crowd_is_seeded_and_replays_batch(seed):
    spec_factory = _spec_factory("lossy")
    served, schedule, reconnects = _serve_crowd(spec_factory, seed)
    assert reconnects > 0
    assert _serve_crowd(spec_factory, seed)[1:] == (schedule, reconnects)
    assert served == _batch(spec_factory, schedule)


def test_served_equals_batch_two_phase_cha():
    """The ablation protocol (2 rounds/instance) serves identically."""
    spec_factory = _spec_factory("benign", protocol_factory=TwoPhaseCHA)
    served, schedule = _serve(spec_factory)
    assert served == _batch(spec_factory, schedule)


def test_detach_and_slow_consumers_do_not_perturb_the_world():
    """The same world served three ways — no clients at all, a script
    with mid-run attach/detach but no proposals, and a never-reading
    slow consumer with a tiny queue — produces identical bytes (and an
    empty accepted schedule each time)."""
    spec_factory = _spec_factory("lossy")

    def serve_with(population) -> bytes:
        service = ConsensusService(
            spec_factory(), ServiceConfig(rounds_per_tick=3, queue_limit=4))
        population(service)
        while not service.driver.complete:
            service.driver.tick()
        assert service.driver.ledger.schedule() == ()
        return observables(service.driver.result)

    def nobody(service):
        pass

    def churny_watcher(service):
        client = service.connect()
        client.drain()

    def slow_consumer(service):
        service.connect()  # never reads; queue_limit=4 forces drops

    results = {serve_with(nobody), serve_with(churny_watcher),
               serve_with(slow_consumer)}
    assert len(results) == 1
    # ... and the no-client serve matches the plain batch run too.
    assert results == {_batch(spec_factory, ())}
