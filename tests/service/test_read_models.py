"""The client-visible read models: instance watches and prefix feeds.

Both are per-session filters applied at publish time, in front of the
bounded ``SessionQueue`` fan-out — so a watcher streams every state
transition of its instance, a prefix subscriber sees only matching
decisions, non-watchers pay nothing for either, and a slow watcher
still drops oldest rather than stalling the world.
"""

from __future__ import annotations

import pytest

from repro import CHA, ClusterWorld, ExperimentSpec, WorkloadSpec
from repro.service import ConsensusService, ServiceConfig

pytestmark = pytest.mark.fast


def _service(instances: int = 6, **config) -> ConsensusService:
    spec = ExperimentSpec(
        protocol=CHA(),
        world=ClusterWorld(n=4),
        workload=WorkloadSpec(instances=instances),
        keep_trace=False,
    )
    return ConsensusService(spec, ServiceConfig(**config))


def _run_out(service: ConsensusService) -> None:
    while not service.driver.complete:
        service.driver.tick()


# ----------------------------------------------------------------------
# watch_instance
# ----------------------------------------------------------------------

def test_watcher_streams_every_state_transition_of_its_instance():
    service = _service()
    watcher = service.connect()
    watcher.drain()
    watcher.watch_instance(3, request_id="w3")
    ack = watcher.drain()[-1]
    assert ack["type"] == "watching"
    assert ack["instance"] == 3
    assert ack["state"] == "pending"  # nothing has run yet
    assert ack["id"] == "w3"
    _run_out(service)
    events = watcher.drain()
    transitions = [e for e in events if e["type"] == "instance-state"]
    assert [t["state"] for t in transitions] == ["running", "decided"]
    assert all(t["instance"] == 3 for t in transitions)
    decided = transitions[-1]
    assert decided["value"] is not None
    assert decided["agreement"] == "ok"
    # The decision feed itself still arrives (watches narrow
    # instance-state, not decisions).
    assert sum(1 for e in events if e["type"] == "decision") == 6


def test_watching_ack_reports_current_state_mid_run_and_after():
    # One round per tick so the mid-instance "running" window is
    # observable from outside a tick.
    service = _service(rounds_per_tick=1)
    client = service.connect()
    client.drain()
    service.driver.tick()  # round 1: instance 1 froze, nothing decided
    client.watch_instance(1)
    assert client.drain()[-1]["state"] == "running"
    client.watch_instance(5)
    assert client.drain()[-1]["state"] == "pending"
    service.driver.tick()
    service.driver.tick()  # instance 1 completes its 3 rounds
    client.watch_instance(1)
    ack = client.drain()[-1]
    assert ack["state"] == "decided"
    assert ack["agreement"] == "ok"


@pytest.mark.parametrize("limit", [0, 1, 3, 64])
def test_watching_ack_tracks_the_bounded_decision_log(limit):
    """The ack carries value/agreement exactly while the decision is
    still inside the bounded log — answered from an index that is
    pruned in step with it, not by scanning the log."""
    service = _service(instances=8, decision_log_limit=limit)
    client = service.connect()
    _run_out(service)
    client.drain()
    driver = service.driver
    logged = {e["instance"]: e for e in driver.snapshot()["recent_decisions"]}
    assert sorted(logged) == list(range(9 - min(limit, 8), 9))
    assert driver._decision_index == logged
    for instance in range(1, 9):
        client.watch_instance(instance)
        ack = client.drain()[-1]
        assert ack["type"] == "watching" and ack["state"] == "decided"
        if instance in logged:
            assert ack["value"] == logged[instance]["value"]
            assert ack["agreement"] == "ok"
        else:  # fell out of the log: decided, details gone
            assert "value" not in ack and "agreement" not in ack


def test_non_watchers_receive_no_instance_state_events():
    service = _service()
    watcher = service.connect()
    bystander = service.connect()
    watcher.drain(), bystander.drain()
    watcher.watch_instance(2)
    watcher.drain()
    _run_out(service)
    assert all(e["type"] != "instance-state" for e in bystander.drain())
    assert any(e["type"] == "instance-state" for e in watcher.drain())


def test_unwatch_stops_the_stream():
    service = _service()
    watcher = service.connect()
    watcher.drain()
    watcher.watch_instance(1)
    watcher.watch_instance(5)
    watcher.drain()
    watcher.unwatch_instance(5, request_id="u5")
    ack = watcher.drain()[-1]
    assert ack["type"] == "unwatched" and ack["id"] == "u5"
    _run_out(service)
    transitions = [e for e in watcher.drain()
                   if e["type"] == "instance-state"]
    assert transitions and all(t["instance"] == 1 for t in transitions)


def test_watches_clear_on_attach_world_rebind():
    service = _service(worlds=2)
    client = service.connect(world="w1")
    client.drain()
    client.watch_instance(1)
    client.drain()
    client.attach_world("w2")
    client.drain()
    stats_of = lambda: [e for e in client.drain() if e["type"] == "stats"]
    client.stats()
    assert stats_of()[-1]["watched_instances"] == 0
    service.tick_all()
    assert all(e["type"] != "instance-state" for e in client.drain())


def test_slow_watcher_drops_oldest_but_the_world_never_stalls():
    service = _service(instances=40, queue_limit=4)
    watcher = service.connect()
    watcher.drain()
    for k in range(1, 41):
        watcher.watch_instance(k)
    # never reads from here on
    _run_out(service)
    assert service.driver.complete  # the clock outran the watcher
    assert watcher.dropped > 0
    assert len(watcher.drain()) == 4  # clamped at the bound


# ----------------------------------------------------------------------
# subscribe_prefix
# ----------------------------------------------------------------------

def test_prefix_subscription_narrows_the_decision_feed():
    service = _service()
    feed = service.connect()
    proposer = service.connect()
    feed.drain(), proposer.drain()
    feed.subscribe_prefix("hot.", request_id="s")
    ack = feed.drain()[-1]
    assert ack["type"] == "subscribed" and ack["prefix"] == "hot."
    proposer.propose("hot.alpha", instance=1)
    proposer.propose("cold.beta", instance=2)
    proposer.propose("hot.gamma", instance=3)
    _run_out(service)
    decisions = [e for e in feed.drain() if e["type"] == "decision"]
    assert [d["value"] for d in decisions] == ["hot.alpha", "hot.gamma"]
    # The unfiltered session saw everything, including default-proposer
    # instances the subscriber's prefix excluded.
    assert sum(1 for e in proposer.drain()
               if e["type"] == "decision") == 6


def test_empty_prefix_clears_the_filter():
    service = _service(instances=4)
    feed = service.connect()
    feed.drain()
    feed.subscribe_prefix("never-matches.")
    feed.drain()
    service.driver.tick()
    assert all(e["type"] != "decision" for e in feed.drain())
    feed.subscribe_prefix("")
    ack = feed.drain()[-1]
    assert ack["type"] == "subscribed" and ack["prefix"] is None
    _run_out(service)
    assert any(e["type"] == "decision" for e in feed.drain())


def test_prefix_filter_survives_attach_world():
    service = _service(worlds=2)
    feed = service.connect(world="w1")
    feed.drain()
    feed.subscribe_prefix("keep.")
    feed.drain()
    feed.attach_world("w2")
    feed.drain()
    feed.stats()
    stats = [e for e in feed.drain() if e["type"] == "stats"][-1]
    assert stats["value_prefix"] == "keep."
    service.tick_all()  # w2 decides default-proposer values
    assert all(e["type"] != "decision" for e in feed.drain())


def test_filtered_events_do_not_consume_queue_slots():
    """Filtering happens before enqueue: a tiny queue on a narrow
    subscription holds exactly the matching events."""
    service = _service(instances=8, queue_limit=2)
    feed = service.connect()
    proposer = service.connect()
    feed.drain(), proposer.drain()
    feed.subscribe_prefix("rare.")
    feed.drain()
    proposer.propose("rare.one", instance=4)
    _run_out(service)
    events = feed.drain()
    kinds = [e["type"] for e in events]
    # 8 decisions + world-complete flowed; only the rare.one decision
    # and the (unfiltered) world-complete occupied slots — no drops of
    # the matching event despite queue_limit=2.
    assert kinds == ["decision", "world-complete"]
    assert events[0]["value"] == "rare.one"
    assert feed.dropped == 0
