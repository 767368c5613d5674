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

import dataclasses
import functools
import random

import pytest

from _switches import (MODE_IDS, MODES, assert_corners_agree, observables,
                       replay)
from _worlds import cluster_spec
from repro.experiment import MetricsSpec
from repro.net import RandomLossAdversary, WindowAdversary
from repro.service import ConsensusService, ServiceConfig
from repro.switches import Switches

pytestmark = pytest.mark.fast

INSTANCES = 12


@functools.cache
def _spec_factory(env_name: str, *, family: str = "cha"):
    def make():
        environment = {} if env_name == "benign" else {
            "rcf": 30, "adversary": WindowAdversary(RandomLossAdversary(
                p_drop=0.3, p_false=0.2, seed=5), until=20)}
        return cluster_spec(family, n=6, instances=INSTANCES,
                            metrics=MetricsSpec(
                                metrics=("rounds", "total_broadcasts",
                                         "decided_instances"),
                                invariants=("all",)),
                            **environment)
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


@functools.cache
def _served_schedule(spec_factory, switches: Switches):
    """Serve the world under ``switches`` (once per world and corner),
    check it against its batch replay, and return the accepted schedule."""
    def switched():
        return dataclasses.replace(spec_factory(), switches=switches)

    served, schedule = _serve(switched)
    assert schedule, "the script must actually land proposals"
    assert served == replay(switched, schedule)
    return schedule


#: Each served world's switch corners: every (engine, channel) corner,
#: and the reference history on the lossy world.
SERVED_CORNERS = {"benign": dict(zip(MODE_IDS, MODES)), "lossy": {
    **dict(zip(MODE_IDS, MODES)), "ref-history": Switches(history=True)}}


@pytest.mark.parametrize("env_name,corner", [
    pytest.param(env_name, corner, id=f"{corner}-{env_name}")
    for env_name, corners in SERVED_CORNERS.items() for corner in corners])
def test_served_equals_batch_across_switches(env_name, corner):
    """Each corner's served world equals its batch replay."""
    _served_schedule(_spec_factory(env_name),
                     SERVED_CORNERS[env_name][corner])


@pytest.mark.parametrize("env_name", list(SERVED_CORNERS))
def test_served_schedule_invariant_under_switches(env_name):
    """The scripted population lands the identical proposal schedule
    whichever stack serves it: the reference switches change *how*
    rounds are computed, never what decides."""
    assert_corners_agree(_spec_factory(env_name),
                         list(SERVED_CORNERS[env_name].values()),
                         run=_served_schedule, read=tuple)


@pytest.mark.parametrize("rounds_per_tick", [1, 3, 7])
def test_served_equals_batch_across_tick_granularity(rounds_per_tick):
    """Tick chunking shifts *when* the script observes decisions (and
    therefore which instances its reactions land in), but each chunking
    still replays byte-identically against its own accepted schedule."""
    spec_factory = _spec_factory("benign")
    served, schedule = _serve(spec_factory, rounds_per_tick=rounds_per_tick)
    assert served == replay(spec_factory, schedule)


@pytest.mark.parametrize("seed", [3, 11])
def test_churny_flash_crowd_is_seeded_and_replays_batch(seed):
    spec_factory = _spec_factory("lossy")
    served, schedule, reconnects = _serve_crowd(spec_factory, seed)
    assert reconnects > 0
    assert _serve_crowd(spec_factory, seed)[1:] == (schedule, reconnects)
    assert served == replay(spec_factory, schedule)


def test_served_equals_batch_two_phase_cha():
    """The ablation protocol (2 rounds/instance) serves identically."""
    spec_factory = _spec_factory("benign", family="two-phase-cha")
    served, schedule = _serve(spec_factory)
    assert served == replay(spec_factory, schedule)


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
    assert results == {replay(spec_factory, ())}
