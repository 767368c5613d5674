"""The world driver: one live experiment on an asyncio clock.

Three pieces, composed by :class:`~repro.service.server.ConsensusService`:

* :class:`ProposalLedger` — the determinism seam.  Client proposals land
  in a per-instance assignment table *before* the world begins that
  instance (the watermark freezes exactly when the protocol's
  ``propose`` pulls the proposal), and the accepted schedule can
  be replayed through :meth:`ProposalLedger.scripted` as a plain
  ``proposer_factory`` — which is how the differential suite proves a
  served world and a batch :func:`repro.run` are byte-identical.
* :class:`EventBus` / :class:`SessionQueue` — per-session bounded fan-out
  with a drop-oldest slow-consumer policy.  The bus fans out **by filter
  class**, not per session: the read models (``watch_instance``,
  ``subscribe_prefix``) are groups it indexes — an instance's watchers,
  a value prefix's subscribers — so a publish costs one lookup per
  instance-state event and one ``startswith`` per distinct prefix per
  decision, *before* enqueue; a filtered-out event costs a subscriber
  nothing and a slow consumer still drops rather than stalls the world's
  clock.  A queue holds the shared published event and stamps the
  per-session ``seq`` **when the event is read**, on the reader's own
  copy, so consumers detect drops as gaps and an event dropped unread
  is never copied.
* :class:`WorldDriver` — owns an :class:`~repro.experiment.runner.ExperimentStepper`
  and advances it ``rounds_per_tick`` rounds per tick, publishing
  ``instance-state`` transitions (pending → running → decided) and
  harvesting newly decided instances into ``decision`` events (each
  carrying a live agreement verdict from
  :func:`repro.core.spec.check_agreement`).  The harvest reads each
  decision **once per cohort store** (the nodes that share one log the
  same record), not once per node.  Many drivers — one per
  registered world — share one asyncio loop; each carries its world
  ``name`` and ``spec_hash`` so every event says which world it is
  from.

The driver's :meth:`~WorldDriver.tick` is synchronous: a tick runs
between awaits, so sessions never observe — or perturb — a half-stepped
world.
"""

from __future__ import annotations

import asyncio
import logging
from collections import deque
from typing import Any, Callable, Iterable

from ..core.cha import ROUNDS_PER_INSTANCE
from ..core.slotted import shared_store
from ..core.spec import check_agreement
from ..errors import ConfigurationError, ServiceError, SpecViolation
from ..experiment.result import OK, ExperimentResult
from ..experiment.runner import (
    FULL_HISTORY_PROTOCOLS,
    ExperimentStepper,
    Instrument,
)
from ..experiment.spec import ExperimentSpec, default_proposer
from ..types import BOTTOM, NodeId
from .registry import spec_hash as _spec_hash

Value = Any
Instance = int
_log = logging.getLogger(__name__)

#: ``(instance, node, value)`` rows; ``node is None`` means "any node
#: without its own assignment proposes this value".
Schedule = tuple[tuple[Instance, NodeId | None, Value], ...]


class ProposalLedger:
    """Accepted client proposals, frozen instance by instance.

    The ledger's :meth:`proposer` closures are what the protocol
    processes call: the first ``propose(k)`` of a round advances the
    freeze watermark to ``k``, after which :meth:`submit` rejects
    proposals for ``k`` (they can no longer take effect, and silently
    accepting them would make the accepted schedule unreplayable).
    Within an instance, assignment is last-writer-wins per ``(instance,
    node)`` slot; nodes without an assignment fall back to the
    ``node=None`` wildcard slot, then to the default proposer.
    """

    def __init__(self, default: Callable[[NodeId], Callable[[Instance], Value]]
                 = default_proposer) -> None:
        self._default = default
        self._assignments: dict[Instance, dict[NodeId | None, Value]] = {}
        self._accepted: list[tuple[Instance, NodeId | None, Value]] = []
        self.frozen_through: Instance = 0

    @property
    def next_open(self) -> Instance:
        """The lowest instance still accepting proposals."""
        return self.frozen_through + 1

    def submit(self, value: Value, *, instance: Instance | None = None,
               node: NodeId | None = None) -> Instance:
        """Record one proposal; returns the instance it landed in."""
        if instance is None:
            instance = self.next_open
        if instance <= self.frozen_through:
            raise ServiceError(
                f"instance {instance} is frozen: the world already began "
                f"it (proposals are open from {self.next_open})"
            )
        self._assignments.setdefault(instance, {})[node] = value
        self._accepted.append((instance, node, value))
        return instance

    def schedule(self) -> Schedule:
        """The accepted proposals, in arrival order (replayable)."""
        return tuple(self._accepted)

    def proposer(self, node: NodeId) -> Callable[[Instance], Value]:
        default = self._default(node)

        def propose(k: Instance) -> Value:
            if k > self.frozen_through:
                self.frozen_through = k
            slot = self._assignments.get(k)
            if slot is not None:
                if node in slot:
                    return slot[node]
                if None in slot:
                    return slot[None]
            return default(k)

        return propose

    @classmethod
    def scripted(cls, schedule: Iterable[tuple[Instance, NodeId | None, Value]],
                 default: Callable[[NodeId], Callable[[Instance], Value]]
                 = default_proposer) -> Callable[[NodeId], Callable[[Instance], Value]]:
        """A ``proposer_factory`` replaying an accepted schedule.

        ``ProposalLedger.scripted(driver.ledger.schedule())`` plugged
        into ``spec.override(protocol__proposer_factory=...)`` makes a
        batch :func:`repro.run` propose exactly what the served world's
        clients did.
        """
        ledger = cls(default)
        for instance, node, value in schedule:
            ledger._assignments.setdefault(instance, {})[node] = value
        return ledger.proposer


class SessionQueue:
    """One session's bounded event queue (drop-oldest when full).

    ``put`` is synchronous and never blocks the publisher: a full queue
    evicts its oldest event and bumps :attr:`dropped` — the slow
    consumer, not the world clock, pays.  Events are numbered with a
    monotonically increasing per-session ``seq`` in ``put`` order, so a
    consumer that sees ``seq`` jump knows exactly how many events it
    lost.  The queue holds the published event itself, shared with every
    other session it reached; a read makes this session's private copy
    and stamps it (the queue holds the newest ``len(queue)`` of
    :attr:`seq` events put, so its oldest is number ``seq - len(queue)``).
    An event evicted unread is never copied.
    """

    def __init__(self, limit: int) -> None:
        if limit < 1:
            raise ConfigurationError("session queue limit must be >= 1")
        self.limit = limit
        self._items: deque[dict] = deque()
        self._wakeup = asyncio.Event()
        self.seq = 0
        self.dropped = 0
        self.delivered = 0

    def __len__(self) -> int:
        return len(self._items)

    def put(self, event: dict) -> None:
        items = self._items
        if len(items) >= self.limit:
            items.popleft()
            self.dropped += 1
        items.append(event)
        self.seq += 1
        self._wakeup.set()

    def _pop(self) -> dict:
        items = self._items
        event = dict(items[0], seq=self.seq - len(items))
        items.popleft()
        self.delivered += 1
        return event

    def get_nowait(self) -> dict | None:
        return self._pop() if self._items else None

    async def get(self) -> dict:
        while not self._items:
            self._wakeup.clear()
            await self._wakeup.wait()
        return self._pop()


class EventBus:
    """Fan-out of world events to per-session queues, by filter class.

    The read models are data the bus indexes, not callables it calls:
    an ``instance-state`` event reaches the watchers of its instance
    only; a ``decision`` event reaches the sessions without a value
    prefix and the group of each distinct prefix its value — a ``str``
    — starts with (one ``startswith`` per prefix, not per session); any
    other event reaches every session.  Each group keeps subscription
    order.  The bus is the one holder of the watch sets.  Published
    events are shared by every queue they reach and must not be mutated
    after :meth:`publish`.

    :meth:`attach` subscribes an *existing* queue — how
    ``attach_world`` moves a session to another world's bus without
    resetting its ``seq`` stream; :meth:`unsubscribe` drops the
    session's watches with it.
    """

    def __init__(self) -> None:
        #: Every subscriber, in subscription order.
        self._queues: dict[str, SessionQueue] = {}
        #: Value prefix -> the sessions it filters decisions for
        #: (``None``: the sessions without one).
        self._feeds: dict[str | None, dict[str, SessionQueue]] = {}
        #: Instance -> the sessions watching it.
        self._watchers: dict[Instance, dict[str, SessionQueue]] = {}

    @property
    def subscribers(self) -> int:
        return len(self._queues)

    def attach(self, session_id: str, queue: SessionQueue,
               prefix: str | None = None) -> None:
        """Subscribe an existing queue (``seq`` continues uninterrupted)."""
        if session_id in self._queues:
            raise ServiceError(f"session {session_id!r} already subscribed")
        self._queues[session_id] = queue
        self._join(self._feeds, prefix, session_id)

    def unsubscribe(self, session_id: str) -> None:
        if self._queues.pop(session_id, None) is None:
            return
        for groups in (self._feeds, self._watchers):
            for key in [key for key, group in groups.items()
                        if session_id in group]:
                self._leave(groups, key, session_id)

    def set_prefix(self, session_id: str, prefix: str | None) -> None:
        """Filter ``session_id``'s decisions by ``prefix`` (``None``: none)."""
        current = next(key for key, group in self._feeds.items()
                       if session_id in group)
        if current != prefix:
            self._leave(self._feeds, current, session_id)
            self._join(self._feeds, prefix, session_id)

    def watch(self, session_id: str, instance: Instance) -> None:
        if session_id not in self._watchers.get(instance, ()):
            self._join(self._watchers, instance, session_id)

    def unwatch(self, session_id: str, instance: Instance) -> None:
        if session_id in self._watchers.get(instance, ()):
            self._leave(self._watchers, instance, session_id)

    def watched(self, session_id: str) -> int:
        """How many instances ``session_id`` watches."""
        return sum(session_id in group for group in self._watchers.values())

    def _join(self, groups: dict, key: Any, session_id: str) -> None:
        group = groups.setdefault(key, {})
        group[session_id] = self._queues[session_id]
        if session_id != next(reversed(self._queues)):
            # Not the newest subscriber: restore subscription order.
            groups[key] = {sid: queue for sid, queue in self._queues.items()
                           if sid in group}

    def _leave(self, groups: dict, key: Any, session_id: str) -> None:
        group = groups[key]
        del group[session_id]
        if not group:
            del groups[key]

    def publish(self, event: dict) -> None:
        kind = event.get("type")
        if kind == "instance-state":
            groups = [self._watchers.get(event["instance"], {})]
        elif kind == "decision":
            value = event.get("value")
            text = isinstance(value, str)
            groups = [group for prefix, group in self._feeds.items()
                      if prefix is None or text and value.startswith(prefix)]
        else:
            groups = [self._queues]
        for group in groups:
            for queue in group.values():
                queue.put(event)


class WorldDriver:
    """Advance one live world on an asyncio clock, publishing decisions.

    Construction builds the world paused — nothing runs until
    :meth:`tick` (or the :meth:`run` clock coroutine) does, so sessions
    attached before the first tick observe the run from round zero.
    ``rounds_per_tick`` and the accepted proposal schedule fully
    determine the event stream; the wall clock only decides *when* ticks
    happen, never *what* they compute.
    """

    #: Protocols the service can drive: the full-history cluster family.
    SERVABLE = FULL_HISTORY_PROTOCOLS

    def __init__(self, spec: ExperimentSpec, *,
                 name: str = "w1",
                 rounds_per_tick: int = ROUNDS_PER_INSTANCE,
                 tick_interval: float = 0.0,
                 decision_log_limit: int = 256,
                 instrument: Instrument | None = None) -> None:
        if not isinstance(spec.protocol, self.SERVABLE):
            raise ConfigurationError(
                f"the service drives {[c.__name__ for c in self.SERVABLE]} "
                f"worlds; got {type(spec.protocol).__name__}"
            )
        if rounds_per_tick < 1:
            raise ConfigurationError("rounds_per_tick must be >= 1")
        self.name = name
        # Fingerprint the inert spec, before the proposer closure is
        # injected — the hash must match what a batch replay would hash.
        self.spec_hash = _spec_hash(spec)
        self.ledger = ProposalLedger(
            getattr(spec.protocol, "proposer_factory", None) or default_proposer
        )
        spec = spec.override(protocol__proposer_factory=self.ledger.proposer)
        self.spec = spec
        self.rounds_per_tick = rounds_per_tick
        self.tick_interval = tick_interval
        self.stepper = ExperimentStepper(spec, instrument=instrument)
        self.bus = EventBus()
        self.result: ExperimentResult | None = None
        #: The ``world-failed`` event, once a tick raised.
        self.failed: dict | None = None
        self.decisions_published = 0
        self._decision_log: deque[dict] = deque(maxlen=decision_log_limit)
        #: instance -> its event in ``_decision_log``, pruned as the
        #: bounded deque drops its oldest.
        self._decision_index: dict[Instance, dict] = {}
        self._harvested = 0

    # -- introspection -------------------------------------------------

    @property
    def nodes(self) -> int:
        return len(self.stepper.processes)

    @property
    def current_round(self) -> int:
        return self.stepper.simulator.current_round

    @property
    def complete(self) -> bool:
        return self.result is not None or self.failed is not None

    def snapshot(self) -> dict:
        """The catch-up view a newly attached session receives."""
        return {
            "world": self.name,
            "spec_hash": self.spec_hash,
            "round": self.current_round,
            "nodes": self.nodes,
            "next_instance": self.ledger.next_open,
            "decided_instances": self.decisions_published,
            "recent_decisions": list(self._decision_log),
            "complete": self.complete,
        }

    def instance_state(self, instance: Instance) -> dict:
        """The read-model view of one instance's lifecycle.

        ``pending`` — the world has not pulled its proposals yet;
        ``running`` — the proposal watermark passed it, no decision yet;
        ``decided`` — harvested, with ``value``/``agreement`` attached
        when the decision is still inside the bounded decision log.
        """
        state: dict = {"instance": instance}
        if instance <= self._harvested:
            state["state"] = "decided"
            event = self._decision_index.get(instance)
            if event is not None:
                state["value"] = event["value"]
                state["agreement"] = event["agreement"]
        elif instance <= self.ledger.frozen_through:
            state["state"] = "running"
        else:
            state["state"] = "pending"
        return state

    # -- proposals -----------------------------------------------------

    def submit(self, value: Value, *, instance: Instance | None = None,
               node: NodeId | None = None) -> Instance:
        if self.complete:
            raise ServiceError("the world has completed; no further "
                               "instances will run")
        if node is not None and node >= self.nodes:
            raise ServiceError(
                f"node {node} does not exist (world has {self.nodes} nodes)"
            )
        return self.ledger.submit(value, instance=instance, node=node)

    # -- the clock -----------------------------------------------------

    def tick(self) -> list[dict]:
        """Advance one tick; publish and return the new events.

        Synchronous — runs between awaits, so no session interleaves
        with a half-stepped world.  Publishes, in order: ``running``
        transitions for instances whose proposals froze this tick,
        ``decision`` events for newly harvested instances, then their
        ``decided`` transitions.  The transition events only reach
        the watchers of their instance.  The returned events are the
        published ones, shared with the session queues: do not mutate
        them.
        """
        if self.complete:
            return []
        watermark = self.ledger.frozen_through
        self.stepper.step(self.rounds_per_tick)
        events: list[dict] = [
            {"type": "instance-state", "world": self.name, "instance": k,
             "round": self.current_round, "state": "running"}
            for k in range(watermark + 1, self.ledger.frozen_through + 1)
        ]
        decisions = self._harvest()
        events.extend(decisions)
        events.extend(
            {"type": "instance-state", "world": self.name,
             "instance": d["instance"], "round": d["round"],
             "state": "decided", "value": d["value"],
             "agreement": d["agreement"]}
            for d in decisions
        )
        for event in events:
            self.bus.publish(event)
        if self.stepper.remaining == 0:
            events.append(self._finalize())
        return events

    async def run(self) -> ExperimentResult | None:
        """Tick until the workload is exhausted (None: a tick raised).

        ``tick_interval`` is the real-time pacing; zero yields to the
        loop between ticks but otherwise runs flat out.  A tick that
        raises ends this world alone, with a ``world-failed`` event.
        """
        while not self.complete:
            if self.tick_interval > 0:
                await asyncio.sleep(self.tick_interval)
            else:
                await asyncio.sleep(0)
            try:
                self.tick()
            except Exception as exc:
                _log.error("world %s failed at round %d", self.name,
                           self.current_round, exc_info=exc)
                self.failed = {"type": "world-failed", "world": self.name,
                               "round": self.current_round,
                               "error": f"{type(exc).__name__}: {exc}"}
                self.bus.publish(self.failed)
        return self.result

    # -- harvesting ----------------------------------------------------

    def _harvest(self) -> list[dict]:
        # One group per cohort store, a forked or unshared node being
        # its own: members log the same record, so a group is read once,
        # counted by its size, and is one ``check_agreement`` row under
        # its lowest-numbered member (a node that disagrees has such a
        # store-mate, no later in node order, so the verdict is the
        # per-node one).  A crashed node stops logging, so a shorter log
        # holds ``ready`` back only while its group has a live member,
        # and an instance's rows come from the groups that logged it.
        stores: dict[Any, list] = {}
        for node, proc in self.stepper.processes.items():
            core = getattr(proc, "core", None)
            key = shared_store(core) or node
            if key is not node:
                start = core.log_shared_from()
                if start is None or start > self._harvested:
                    key = node  # rejoined: until its log is the store's
            if key in stores:
                stores[key][2].append(node)
            else:
                stores[key] = [node, proc.outputs, [node]]
        groups = list(stores.values())
        longest = max((len(log) for _, log, _ in groups), default=0)
        alive = self.stepper.simulator.alive
        ready = min((len(log) for _, log, members in groups
                     if len(log) < longest and any(map(alive, members))),
                    default=longest)
        events = []
        # One row per group, refilled per instance: the shape
        # ``check_agreement`` takes, without a fresh dict of lists each.
        rows = {node: [None] for node, _, _ in groups}
        for idx in range(self._harvested, ready):
            spoken = None  # the lowest-numbered decided node's output
            decided = 0
            for node, log, members in groups:
                if idx >= len(log):
                    # Crashed: logs no later instance either.
                    rows.pop(node, None)
                    continue
                instance, out = rows[node][0] = log[idx]
                if out is not BOTTOM:
                    decided += len(members)
                    if spoken is None:
                        spoken = out
            try:
                check_agreement(rows, switches=self.stepper.switches)
            except SpecViolation as exc:
                verdict = f"violated: {exc}"
            else:
                verdict = OK
            events.append({
                "type": "decision",
                "world": self.name,
                "instance": instance,
                "round": self.current_round,
                "value": None if spoken is None else spoken(instance),
                "decided": decided,
                "bottom": self.nodes - decided,
                "agreement": verdict,
            })
        if events:
            self._harvested = ready
            self.decisions_published += len(events)
            self._decision_log.extend(events)
            index = self._decision_index
            index.update((event["instance"], event) for event in events)
            # Insertion order is harvest order, so the index's oldest
            # keys are exactly what the bounded deque just dropped.
            while len(index) > len(self._decision_log):
                del index[next(iter(index))]
        return events

    def _finalize(self) -> dict:
        self.result = self.stepper.finish()
        event = {
            "type": "world-complete",
            "world": self.name,
            "round": self.current_round,
            "instances": self._harvested,
            "decisions": self.decisions_published,
            "invariants": dict(self.result.invariants),
        }
        self.bus.publish(event)
        return event
