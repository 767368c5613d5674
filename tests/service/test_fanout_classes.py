"""The bus's fan-out by filter class equals the per-session predicate.

``EventBus`` indexes the read models — an instance's watchers, a value
prefix's subscribers — instead of asking every session whether it wants
every event.  This suite drives seeded random sequences of session
operations over two worlds (open / close, many sessions watching and
unwatching one instance, prefix subscriptions including ``""`` to
clear, ``attach_world``, ticks and hand-built events whose decision
``value`` is ``None`` or not a ``str``) and checks each session's
drained stream, ``seq`` included, against a model built from the
predicate the bus replaced and the stamp-a-copy-at-enqueue queue.
"""

from __future__ import annotations

import copy
import random
from collections import deque

import pytest

from repro import CHA, ClusterWorld, ExperimentSpec, WorkloadSpec
from repro.service import ConsensusService, ServiceConfig, SessionQueue

pytestmark = pytest.mark.fast

WORLDS = ("w1", "w2")
LIMIT = 4
PREFIXES = ("", "a", "ab", "abc", "b", "z")
VALUES = ("a", "ab", "abc", "abd", "b", "ba", "", None, 7, 2.5, b"ab",
          ("a",))


def admits(watched: set, prefix: str | None, event: dict) -> bool:
    """The per-session publish-time predicate the bus's groups replace."""
    kind = event.get("type")
    if kind == "instance-state":
        return event["instance"] in watched
    if kind == "decision" and prefix is not None:
        value = event.get("value")
        return isinstance(value, str) and value.startswith(prefix)
    return True


class StampingQueue:
    """A session queue that stamps a private copy at every put."""

    def __init__(self, limit: int) -> None:
        self.limit = limit
        self.items: deque[dict] = deque()
        self.seq = self.dropped = 0

    def put(self, event: dict) -> None:
        stamped = dict(event)
        stamped["seq"] = self.seq
        self.seq += 1
        if len(self.items) >= self.limit:
            self.items.popleft()
            self.dropped += 1
        self.items.append(stamped)

    def drain(self) -> list[dict]:
        events = list(self.items)
        self.items.clear()
        return events


class Model:
    """What each session should see, one :class:`StampingQueue` each."""

    def __init__(self, monkeypatch, service: ConsensusService) -> None:
        self.queues: dict[SessionQueue, StampingQueue] = {}
        self.subscribers = {world: [] for world in WORLDS}
        self.world: dict[str, str] = {}
        self.watched: dict[str, set] = {}
        self.prefix: dict[str, str | None] = {}
        self.published: list[tuple[dict, dict]] = []
        self._publishing = False
        put = SessionQueue.put

        def mirrored_put(queue, event):
            # Events a session hands its own queue (welcome, acks) are
            # mirrored as they are; the bus's are fanned out by publish.
            if not self._publishing:
                self.of(queue).put(event)
            put(queue, event)

        monkeypatch.setattr(SessionQueue, "put", mirrored_put)
        for world in WORLDS:
            bus = service.registry.get(world).driver.bus
            monkeypatch.setattr(bus, "publish",
                                self._publisher(world, bus.publish))

    def of(self, queue: SessionQueue) -> StampingQueue:
        return self.queues.setdefault(queue, StampingQueue(queue.limit))

    def _publisher(self, world: str, publish):
        def modelled_publish(event: dict) -> None:
            self.published.append((event, copy.deepcopy(event)))
            for client in self.subscribers[world]:
                sid = client.session_id
                if admits(self.watched[sid], self.prefix[sid], event):
                    self.of(client.session.queue).put(event)
            self._publishing = True
            try:
                publish(event)
            finally:
                self._publishing = False
        return modelled_publish

    def subscribe(self, client, world: str) -> None:
        self.subscribers[world].append(client)
        self.world[client.session_id] = world
        self.watched[client.session_id] = set()


def _service() -> ConsensusService:
    spec = ExperimentSpec(protocol=CHA(), world=ClusterWorld(n=4),
                          workload=WorkloadSpec(instances=6),
                          keep_trace=False)
    return ConsensusService(spec, ServiceConfig(worlds=len(WORLDS),
                                                queue_limit=LIMIT))


def _check(model: Model, client) -> None:
    expected = model.of(client.session.queue)
    assert client.drain() == expected.drain()
    assert client.dropped == expected.dropped


def _event(rng: random.Random, world: str) -> dict:
    kind = rng.choice(("decision", "decision", "instance-state", "other"))
    if kind == "decision":
        return {"type": "decision", "world": world,
                "instance": rng.randint(1, 4), "value": rng.choice(VALUES)}
    if kind == "instance-state":
        return {"type": "instance-state", "world": world,
                "instance": rng.randint(1, 4), "state": "running"}
    return {"type": "shutdown", "reason": f"note {rng.random():.3f}"}


@pytest.mark.parametrize("seed", range(16))
def test_fan_out_by_class_matches_the_per_session_predicate(monkeypatch,
                                                            seed):
    rng = random.Random(seed)
    service = _service()
    model = Model(monkeypatch, service)
    clients = []
    for _ in range(300):
        op = rng.choices(
            ("open", "close", "watch", "unwatch", "prefix", "attach",
             "publish", "tick", "drain", "stats"),
            weights=(3, 1, 5, 3, 3, 2, 8, 1, 4, 1))[0]
        if op == "open" or not clients:
            world = rng.choice(WORLDS)
            client = service.connect(world=world)
            model.subscribe(client, world)
            model.prefix[client.session_id] = None
            clients.append(client)
            continue
        client = rng.choice(clients)
        sid = client.session_id
        world = model.world[sid]
        if op == "close":
            client.close()
            model.subscribers[world].remove(client)
            clients.remove(client)
            _check(model, client)
        elif op == "watch":
            instance = rng.randint(1, 4)
            client.watch_instance(instance)
            model.watched[sid].add(instance)
        elif op == "unwatch":
            instance = rng.randint(1, 4)
            client.unwatch_instance(instance)
            model.watched[sid].discard(instance)
        elif op == "prefix":
            prefix = rng.choice(PREFIXES)
            client.subscribe_prefix(prefix)
            model.prefix[sid] = prefix or None
        elif op == "attach":
            target = rng.choice(WORLDS)
            client.attach_world(target)
            model.subscribers[world].remove(client)
            model.subscribe(client, target)  # watches cleared
        elif op == "publish":
            target = rng.choice(WORLDS)
            service.registry.get(target).driver.bus.publish(
                _event(rng, target))
        elif op == "tick":
            service.tick_all()
        elif op == "drain":
            _check(model, client)
        else:
            stats = client.session.stats()
            assert stats["watched_instances"] == len(model.watched[sid])
            assert stats["value_prefix"] == model.prefix[sid]
            client.stats()
    for client in clients:
        _check(model, client)
    # Queues overflowed, and the decision feed was filtered.
    assert any(queue.dropped for queue in model.queues.values())
    assert any(event.get("type") == "decision"
               and not all(admits(set(), prefix or None, event)
                           for prefix in PREFIXES)
               for event, _ in model.published)
    # Every event was shared, never copied or stamped in place.
    assert all(event == before and "seq" not in event
               for event, before in model.published)


def test_a_watch_group_keeps_subscription_order():
    """However the watches arrive, the watchers of one instance are
    served in the order their sessions subscribed — the order the
    per-session loop woke them in."""
    service = _service()
    clients = [service.connect() for _ in range(5)]
    for client in (clients[3], clients[0], clients[4], clients[1]):
        client.watch_instance(2)
    clients[0].unwatch_instance(2)
    clients[0].watch_instance(2)
    woken = []
    for client in clients:
        client.drain()
        queue = client.session.queue

        def put(event, _sid=client.session_id, _put=queue.put):
            woken.append(_sid)
            _put(event)

        queue.put = put
    service.driver.bus.publish({"type": "instance-state", "world": "w1",
                                "instance": 2, "state": "running"})
    assert woken == [clients[i].session_id for i in (0, 1, 3, 4)]
