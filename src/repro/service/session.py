"""Sessions: one client's window onto one named world.

A :class:`Session` owns exactly one :class:`~repro.service.driver.SessionQueue`
subscribed to the event bus of the world it is bound to, plus the
request dispatch shared by every transport.  The read models are what
the session tells that :class:`~repro.service.driver.EventBus`:
``watch_instance`` / ``unwatch_instance`` edit the bus's watch set
(``instance-state`` events reach watchers of their instance only) and
``subscribe_prefix`` moves the session to the bus's group for that value
prefix (``decision`` events reach the groups whose prefix they match).
The bus fans out per group at publish time, before enqueue, so the read
models cost non-watchers nothing and never stall a world's clock.

``attach_world`` re-binds a session: the queue moves to the new world's
bus with its ``seq`` stream intact, instance watches end with the old
subscription (instance numbers are world-local), and the value-prefix
filter persists.

:class:`SessionManager` is the registry — open, close, drain — and the
only holder of strong references: closing a session unsubscribes its
queue, detaches it from its world's session count, and drops it from
the table, after which nothing in the service keeps it alive (the
lifecycle suite pins this with weakrefs).
"""

from __future__ import annotations

from ..errors import ServiceError
from .driver import SessionQueue, WorldDriver
from .events import (
    ack_event,
    bye_event,
    error_event,
    pong_event,
    stats_event,
    subscribed_event,
    unwatched_event,
    watching_event,
    welcome_event,
    world_attached_event,
    world_created_event,
    worlds_event,
)
from .registry import WorldEntry, WorldRegistry


class Session:
    """One open session: a queue, a world binding, filters, counters."""

    def __init__(self, session_id: str, entry: WorldEntry,
                 queue: SessionQueue, *, registry: WorldRegistry,
                 client: str | None = None) -> None:
        self.session_id = session_id
        self.client = client
        self.queue = queue
        self.closed = False
        self.proposals_submitted = 0
        self.proposals_accepted = 0
        self._entry = entry
        self._registry = registry
        self._prefix: str | None = None

    @property
    def world_entry(self) -> WorldEntry:
        return self._entry

    @property
    def world(self) -> str:
        return self._entry.name

    @property
    def _driver(self) -> WorldDriver:
        return self._entry.driver

    def stats(self) -> dict:
        return {
            "session": self.session_id,
            "world": self._entry.name,
            "round": self._driver.current_round,
            "next_instance": self._driver.ledger.next_open,
            "proposals_submitted": self.proposals_submitted,
            "proposals_accepted": self.proposals_accepted,
            "events_delivered": self.queue.delivered,
            "events_dropped": self.queue.dropped,
            "events_pending": len(self.queue),
            "watched_instances": self._driver.bus.watched(self.session_id),
            "value_prefix": self._prefix,
        }

    # -- dispatch ------------------------------------------------------

    def handle(self, request: dict) -> bool:
        """Dispatch one validated request; responses land on the queue.

        Returns ``False`` when the session asked to close (``bye``) —
        transports then flush and disconnect.
        """
        if self.closed:
            raise ServiceError(f"session {self.session_id!r} is closed")
        op = request["op"]
        request_id = request.get("id")
        if op == "propose":
            self.proposals_submitted += 1
            try:
                instance = self._driver.submit(
                    request["value"],
                    instance=request.get("instance"),
                    node=request.get("node"),
                )
            except ServiceError as exc:
                self.queue.put(error_event(str(exc), request_id=request_id))
            else:
                self.proposals_accepted += 1
                self.queue.put(ack_event(instance=instance,
                                         request_id=request_id))
        elif op == "ping":
            self.queue.put(pong_event(round_=self._driver.current_round))
        elif op == "stats":
            self.queue.put(stats_event(self.stats()))
        elif op == "create_world":
            self._create_world(request, request_id)
        elif op == "attach_world":
            self._attach_world(request["world"], request_id)
        elif op == "worlds":
            self.queue.put(worlds_event(self._registry.describe(),
                                        request_id=request_id))
        elif op == "watch_instance":
            instance = request["instance"]
            self._driver.bus.watch(self.session_id, instance)
            self.queue.put(watching_event(
                world=self._entry.name,
                state=self._driver.instance_state(instance),
                request_id=request_id,
            ))
        elif op == "unwatch_instance":
            self._driver.bus.unwatch(self.session_id, request["instance"])
            self.queue.put(unwatched_event(instance=request["instance"],
                                           request_id=request_id))
        elif op == "subscribe_prefix":
            # "" clears the filter; the ack echoes what is now active.
            self._prefix = request["prefix"] or None
            self._driver.bus.set_prefix(self.session_id, self._prefix)
            self.queue.put(subscribed_event(prefix=self._prefix,
                                            request_id=request_id))
        elif op == "bye":
            self.queue.put(bye_event())
            return False
        elif op == "hello":
            self.queue.put(error_event(
                "session already open; 'hello' is a connection greeting"
            ))
        else:  # pragma: no cover - the wire layer validates ops
            raise ServiceError(f"unhandled op {op!r}")
        return True

    def _create_world(self, request: dict, request_id: str | None) -> None:
        spec = self._registry.template
        overrides = {}
        if request.get("nodes") is not None:
            overrides["world__n"] = request["nodes"]
        if request.get("instances") is not None:
            overrides["workload__instances"] = request["instances"]
        if overrides:
            spec = spec.override(**overrides)
        try:
            entry = self._registry.create(request.get("world"), spec)
        except ServiceError as exc:
            self.queue.put(error_event(str(exc), request_id=request_id))
            return
        self.queue.put(world_created_event(
            world=entry.name,
            spec_hash=entry.spec_hash,
            nodes=entry.driver.nodes,
            instances=getattr(entry.driver.spec.workload, "instances", None),
            request_id=request_id,
        ))

    def _attach_world(self, name: str, request_id: str | None) -> None:
        try:
            target = self._registry.get(name)
        except ServiceError as exc:
            self.queue.put(error_event(str(exc), request_id=request_id))
            return
        previous = self._entry
        previous.driver.bus.unsubscribe(self.session_id)
        self._registry.detach(previous.name)
        self._entry = self._registry.attach(target.name)
        # Watches are world-local instance numbers and ended with the old
        # subscription; the prefix filter is about values and survives.
        self._entry.driver.bus.attach(self.session_id, self.queue,
                                      self._prefix)
        self.queue.put(world_attached_event(
            snapshot=self._entry.driver.snapshot(), request_id=request_id))


class SessionManager:
    """Open/close registry; the service's only strong session refs."""

    def __init__(self, registry: WorldRegistry, *, queue_limit: int = 1024,
                 max_sessions: int = 10_000) -> None:
        self._registry = registry
        self._queue_limit = queue_limit
        self._max_sessions = max_sessions
        self._sessions: dict[str, Session] = {}
        self._opened = 0
        self.peak = 0

    @property
    def active(self) -> int:
        return len(self._sessions)

    @property
    def opened(self) -> int:
        """Sessions ever opened (reconnects count again)."""
        return self._opened

    def sessions(self) -> list[Session]:
        return list(self._sessions.values())

    def open(self, *, client: str | None = None,
             world: str | None = None) -> Session:
        """Attach a session to ``world``; its first event is ``welcome``.

        ``world`` defaults to the registry's first (pinned) world.
        Unknown worlds raise :class:`~repro.errors.ServiceError` before
        any state changes.
        """
        if len(self._sessions) >= self._max_sessions:
            raise ServiceError(
                f"session limit reached ({self._max_sessions})"
            )
        if world is None:
            names = self._registry.names()
            if not names:
                raise ServiceError("the service has no worlds")
            world = names[0]
        entry = self._registry.attach(world)
        self._opened += 1
        session_id = f"s{self._opened}"
        queue = SessionQueue(self._queue_limit)
        session = Session(session_id, entry, queue,
                          registry=self._registry, client=client)
        entry.driver.bus.attach(session_id, queue)
        self._sessions[session_id] = session
        self.peak = max(self.peak, len(self._sessions))
        queue.put(welcome_event(session=session_id,
                                snapshot=entry.driver.snapshot()))
        return session

    def close(self, session: Session) -> None:
        """Detach: unsubscribe the queue and forget the session."""
        session.closed = True
        entry = session.world_entry
        entry.driver.bus.unsubscribe(session.session_id)
        self._registry.detach(entry.name)
        self._sessions.pop(session.session_id, None)

    def close_all(self) -> None:
        for session in list(self._sessions.values()):
            self.close(session)

    def totals(self) -> dict:
        """Aggregate delivery counters across *open* sessions."""
        sessions = self._sessions.values()
        return {
            "active": len(self._sessions),
            "opened": self._opened,
            "peak": self.peak,
            "events_delivered": sum(s.queue.delivered for s in sessions),
            "events_dropped": sum(s.queue.dropped for s in sessions),
        }
