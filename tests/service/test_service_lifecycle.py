"""Session lifecycle edges: catch-up snapshots, leak-free detach, and
the slow-consumer drop policy.

These drive :class:`WorldDriver.tick` synchronously (the asyncio clock
only schedules ticks; it never changes what they compute), so every
assertion is about session-layer state machines rather than timing.
The one exception awaits events on the live clock, because what it pins
is that a blocked reader is woken.
"""

from __future__ import annotations

import asyncio
import gc
import weakref

import pytest

from repro import CHA, ClusterWorld, ExperimentSpec, WorkloadSpec
from repro.errors import ServiceError
from repro.experiment import MetricsSpec
from repro.service import ConsensusService, ServiceConfig

pytestmark = pytest.mark.fast


def _spec(instances: int = 10, n: int = 5) -> ExperimentSpec:
    return ExperimentSpec(
        protocol=CHA(), world=ClusterWorld(n=n),
        workload=WorkloadSpec(instances=instances),
        metrics=MetricsSpec(metrics=("rounds",), invariants=("agreement",)),
        keep_trace=False,
    )


def _service(*, instances: int = 10, queue_limit: int = 1024,
             max_sessions: int = 10_000) -> ConsensusService:
    return ConsensusService(_spec(instances=instances), ServiceConfig(
        queue_limit=queue_limit, max_sessions=max_sessions))


# ----------------------------------------------------------------------
# Attach: the catch-up snapshot
# ----------------------------------------------------------------------

def test_attach_after_round_n_sees_consistent_snapshot():
    service = _service(instances=10)
    witness = service.connect()   # attached from round 0
    witness.drain()
    for _ in range(4):            # 4 ticks x 3 rounds = 4 instances
        service.driver.tick()

    late = service.connect()
    welcome = late.next_event_nowait()
    assert welcome["type"] == "welcome" and welcome["seq"] == 0
    assert welcome["session"] == late.session_id
    assert welcome["round"] == service.driver.current_round == 12
    assert welcome["next_instance"] == service.driver.ledger.next_open
    assert welcome["decided_instances"] == 4
    assert welcome["complete"] is False

    # The snapshot's recent decisions are exactly the events a
    # from-the-start subscriber received (minus its own seq stamps).
    witnessed = [{k: v for k, v in event.items() if k != "seq"}
                 for event in witness.drain() if event["type"] == "decision"]
    assert welcome["recent_decisions"] == witnessed
    assert [d["instance"] for d in welcome["recent_decisions"]] == [1, 2, 3, 4]

    # From here on, both sessions stream identical decision events.
    service.driver.tick()
    strip = lambda events: [{k: v for k, v in e.items() if k != "seq"}
                            for e in events]
    assert strip(late.drain()) == strip(witness.drain())


def test_attach_after_completion_sees_complete_snapshot():
    service = _service(instances=4)
    while not service.driver.complete:
        service.driver.tick()
    post = service.connect()
    welcome = post.next_event_nowait()
    assert welcome["complete"] is True
    assert welcome["decided_instances"] == 4
    with pytest.raises(ServiceError, match="world has completed"):
        service.driver.submit("too-late")


def test_snapshot_ring_buffer_bounds_catchup():
    service = ConsensusService(_spec(instances=10), ServiceConfig(
        decision_log_limit=3))
    for _ in range(6):
        service.driver.tick()
    welcome = service.connect().next_event_nowait()
    assert welcome["decided_instances"] == 6
    assert [d["instance"] for d in welcome["recent_decisions"]] == [4, 5, 6]


# ----------------------------------------------------------------------
# Detach: no leaked queues or sessions
# ----------------------------------------------------------------------

def test_detach_mid_instance_leaks_nothing():
    service = _service()
    keep = service.connect()
    doomed = service.connect()
    service.driver.tick()  # both sessions now hold events

    session_ref = weakref.ref(doomed.session)
    queue_ref = weakref.ref(doomed.session.queue)
    assert service.sessions.active == 2
    assert service.driver.bus.subscribers == 2

    doomed.close()
    assert service.sessions.active == 1
    assert service.driver.bus.subscribers == 1
    del doomed
    gc.collect()
    assert session_ref() is None, "closed session still strongly referenced"
    assert queue_ref() is None, "closed session's queue still referenced"

    # The survivor still streams; the world never noticed.
    service.driver.tick()
    assert any(e["type"] == "decision" for e in keep.drain())


def test_close_is_idempotent_and_post_close_requests_fail():
    service = _service()
    client = service.connect()
    client.close()
    client.close()  # no-op
    with pytest.raises(ServiceError, match="closed"):
        client.ping()
    assert service.sessions.active == 0


def test_bye_closes_in_process_session():
    service = _service()
    client = service.connect()
    client.drain()
    client.bye()
    assert client.closed
    assert service.sessions.active == 0
    # The farewell event was enqueued before the close.
    assert [e["type"] for e in client.drain()] == ["bye"]


def test_session_limit_enforced_and_freed_by_detach():
    service = _service(max_sessions=2)
    a = service.connect()
    service.connect()
    with pytest.raises(ServiceError, match="session limit"):
        service.connect()
    a.close()
    service.connect()  # the slot freed by the detach is reusable
    assert service.sessions.active == 2
    assert service.sessions.opened == 3  # the rejected attempt never opened


# ----------------------------------------------------------------------
# Backpressure: the slow-consumer drop policy
# ----------------------------------------------------------------------

def test_slow_consumer_drops_oldest_without_stalling_the_clock():
    service = _service(instances=10, queue_limit=4)
    fast = service.connect()
    slow = service.connect()  # never reads until the end

    rounds = 0
    while not service.driver.complete:
        service.driver.tick()
        rounds += 3
        fast.drain()  # the fast consumer keeps up

    # The world clock never stalled on the slow consumer.
    assert service.driver.current_round == 30
    assert service.driver.decisions_published == 10

    # The fast session lost nothing.
    assert fast.dropped == 0

    # The slow session kept only the newest queue_limit events, dropped
    # the rest, and the gap is visible as a seq jump.
    assert slow.dropped > 0
    backlog = slow.drain()
    assert len(backlog) == 4
    seqs = [event["seq"] for event in backlog]
    assert seqs == sorted(seqs)
    # welcome=0 plus 10 decisions plus world-complete = 12 events total;
    # the survivors are the newest 4.
    assert seqs == [8, 9, 10, 11]
    assert slow.dropped == 8
    assert backlog[-1]["type"] == "world-complete"


@pytest.mark.parametrize("rounds_per_tick", [3, 6, 9])
@pytest.mark.parametrize("queue_limit", [1, 2, 3])
def test_each_tick_keeps_the_newest_events_of_its_burst(queue_limit,
                                                        rounds_per_tick):
    """A reader draining after every tick loses exactly the oldest events
    of any tick's burst longer than its queue, reads the rest in seq
    order, and ends on ``world-complete`` — whatever the tick size."""
    service = ConsensusService(_spec(instances=6), ServiceConfig(
        queue_limit=queue_limit, rounds_per_tick=rounds_per_tick))
    driver = service.driver
    client = service.connect()
    client.drain()  # the welcome, seq 0
    published = last_seq = expected_dropped = 0
    while not driver.complete:
        driver.tick()
        burst = driver.decisions_published - published + int(driver.complete)
        published = driver.decisions_published
        lost = max(0, burst - queue_limit)
        kept = client.drain()
        assert [e["seq"] for e in kept] == list(
            range(last_seq + 1 + lost, last_seq + burst + 1))
        last_seq += burst
        expected_dropped += lost
        assert client.dropped == expected_dropped
    assert kept[-1]["type"] == "world-complete"
    assert driver.current_round == 18 and published == 6
    assert expected_dropped == sum(
        max(0, b - queue_limit)
        for b in [rounds_per_tick // 3] * (18 // rounds_per_tick - 1)
        + [rounds_per_tick // 3 + 1])


def test_burst_eviction_counts_as_dropped_and_world_complete_releases():
    """Two decisions per tick into a one-slot queue: each tick's second
    decision evicts its first before any reader can run, and
    ``world-complete`` evicts the last one.  A client awaiting the
    decision of its own (evicted) instance on the live clock sees the
    loss as ``dropped`` and is released by ``world-complete`` — it never
    hangs."""

    async def scenario():
        service = ConsensusService(_spec(instances=4), ServiceConfig(
            queue_limit=1, rounds_per_tick=6))
        client = service.connect()
        client.drain()  # the welcome
        client.propose("mine")
        ack = client.next_event_nowait()
        service.start_world()
        seen = []
        while not seen or seen[-1]["type"] != "world-complete":
            seen.append(await asyncio.wait_for(client.next_event(), 10))
        await service.run_worlds()
        await service.shutdown()
        return ack, seen, client.dropped

    ack, seen, dropped = asyncio.run(scenario())
    assert ack["type"] == "ack" and ack["instance"] == 1
    decided = [e["instance"] for e in seen if e["type"] == "decision"]
    assert 1 not in decided
    assert dropped == 4 - len(decided) >= 3
    assert seen[-1]["seq"] == 6  # welcome, ack, 4 decisions, complete


def test_seq_stamps_are_per_session_and_gapless_for_fast_consumers():
    service = _service(instances=6)
    early = service.connect()
    service.driver.tick()
    late = service.connect()
    while not service.driver.complete:
        service.driver.tick()
    early_seqs = [e["seq"] for e in early.drain()]
    late_seqs = [e["seq"] for e in late.drain()]
    assert early_seqs == list(range(len(early_seqs)))
    assert late_seqs == list(range(len(late_seqs)))
    assert len(early_seqs) > len(late_seqs)  # the late session saw less


def test_totals_aggregate_open_sessions():
    service = _service(instances=4, queue_limit=2)
    service.connect()
    service.connect()
    while not service.driver.complete:
        service.driver.tick()
    totals = service.sessions.totals()
    assert totals["active"] == 2 and totals["peak"] == 2
    assert totals["events_dropped"] > 0  # tiny queues, nobody reading


# ----------------------------------------------------------------------
# Read-time stamping: queues share the published event until it is read
# ----------------------------------------------------------------------

def test_each_reader_gets_a_private_copy_of_a_shared_event():
    service = _service(instances=4)
    clients = [service.connect() for _ in range(3)]
    for client in clients:
        client.drain()
    service.driver.tick()
    recent = [dict(d) for d in service.driver.snapshot()["recent_decisions"]]
    assert [d["instance"] for d in recent] == [1]
    first, second, third = ([e for e in client.drain()
                             if e["type"] == "decision"][0]
                            for client in clients)
    assert first == second == third and first is not second
    first["value"] = "tampered"
    first["agreement"] = "tampered"
    del first["seq"]
    assert second["value"] == third["value"] == recent[0]["value"]
    assert second["seq"] == third["seq"] == 1
    assert service.driver.snapshot()["recent_decisions"] == recent
    assert all("seq" not in d
               for d in service.driver.snapshot()["recent_decisions"])


def test_a_stalled_reader_drains_a_contiguous_seq_tail_and_exact_drops():
    service = _service(instances=12, queue_limit=5)
    stalled = service.connect()
    reader = service.connect()
    while not service.driver.complete:
        service.driver.tick()
        reader.drain()
    # welcome + 12 decisions + world-complete were put: 14 events.
    assert stalled.session.queue.seq == 14
    backlog = stalled.drain()
    assert [e["seq"] for e in backlog] == list(range(9, 14))
    assert stalled.dropped == 9
    assert [e["instance"] for e in backlog[:-1]] == [9, 10, 11, 12]
    assert backlog[-1]["type"] == "world-complete"
    # Reading again finds nothing: the tail was handed out exactly once.
    assert stalled.drain() == [] and stalled.dropped == 9
