"""Deterministic virtual-node programs (the user's code on a virtual node).

A virtual node is a *deterministic* automaton (Section 1.2).  Each virtual
round it may emit one message (computed from its state) and then consumes
an observation of the virtual channel: either the messages delivered to it
(possibly with a collision flag), or — when the emulation's agreement
instance produced bottom — a bare collision indication, per Section 3.3
("the replica instructs its co-located client to simulate detecting a
collision"; the virtual node itself observes the same uncertainty).

State values must be immutable/hashable: replicas compare folded states to
check emulation consistency, and the join protocol ships them in acks.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any

from ..types import VirtualRound


@dataclass(frozen=True)
class VirtualObservation:
    """What a virtual node perceives on the virtual channel in one round.

    ``messages`` are canonical items ``("cl", payload)`` for client
    messages and ``("vn", vn_id, payload)`` for neighbouring virtual
    nodes', sorted.  ``collision`` is the virtual ``±`` flag.
    """

    messages: tuple[Any, ...]
    collision: bool

    @classmethod
    def unknown(cls) -> "VirtualObservation":
        """The bottom-instance observation: nothing but a collision."""
        return cls(messages=(), collision=True)


class ScheduleAware:
    """Mixin: lets a program transmit only in its scheduled virtual rounds.

    The broadcast schedule is static and centrally computed (Section 4.1),
    so a virtual node may legitimately know its own slot;
    :class:`~repro.vi.world.VIWorld` injects ``schedule_slot`` and
    ``schedule_period`` into every program at deployment.  A program that
    emits in unscheduled rounds is *allowed* to (the emulation broadcasts
    it — the paper's "counterintuitive rule"), but with several replicas
    the copies collide on the real channel, so messages that must not be
    lost should be emitted via :meth:`is_my_slot` gating.
    """

    schedule_slot: int | None = None
    schedule_period: int | None = None

    def is_my_slot(self, vr: VirtualRound) -> bool:
        if self.schedule_slot is None or self.schedule_period is None:
            return True
        return vr % self.schedule_period == self.schedule_slot


class VNProgram(ABC):
    """A deterministic virtual-node automaton."""

    @abstractmethod
    def init_state(self) -> Any:
        """Initial state (used at deployment and after a reset)."""

    @abstractmethod
    def emit(self, state: Any, vr: VirtualRound) -> Any | None:
        """Message the virtual node broadcasts in round ``vr`` (or None).

        Must be a pure function of ``(state, vr)``; payloads must be
        canonically orderable (str/int/tuple) so they can ride in ballots.
        """

    @abstractmethod
    def step(self, state: Any, vr: VirtualRound,
             observation: VirtualObservation) -> Any:
        """The state after consuming round ``vr``'s observation.  Pure."""


class SilentProgram(VNProgram):
    """A virtual node that never speaks and counts rounds (for tests)."""

    def init_state(self):
        return 0

    def emit(self, state, vr):
        return None

    def step(self, state, vr, observation):
        return state + 1


class CounterProgram(VNProgram):
    """A shared counter: clients send ("add", n); the node broadcasts its
    total every round.  The canonical quickstart virtual node."""

    def init_state(self):
        return 0

    def emit(self, state, vr):
        return ("count", state)

    def step(self, state, vr, observation):
        if observation.collision and not observation.messages:
            return state
        total = state
        for item in observation.messages:
            if item[0] == "cl":
                payload = item[1]
                if isinstance(payload, tuple) and len(payload) == 2 and payload[0] == "add":
                    total += payload[1]
        return total


class EchoProgram(VNProgram):
    """Re-broadcasts the last client message it received (or stays silent).

    Useful in tests: the echoed value reveals exactly which observation
    the replicas agreed on.
    """

    def init_state(self):
        return None

    def emit(self, state, vr):
        if state is None:
            return None
        return ("echo", state)

    def step(self, state, vr, observation):
        client_payloads = [
            item[1] for item in observation.messages if item[0] == "cl"
        ]
        if client_payloads:
            return client_payloads[-1]
        return state


class MailboxProgram(ScheduleAware, VNProgram):
    """A store-and-forward mailbox: the substrate for VN-overlay routing.

    Clients deposit ``("send", ingress_vn, dest_vn, body)``; only the
    named ingress virtual node accepts the packet (a client broadcast
    reaches every virtual node in range, and without an explicit ingress
    the packet would be duplicated and the duplicates' broadcasts would
    collide).  The node forwards along a static routing table, emitting
    ``("relay", next_vn, dest_vn, body)`` — the explicit next hop makes
    forwarding deterministic even when several neighbours overhear the
    relay.  Items addressed to this node accumulate in the inbox half of
    its state.

    A relayed item rides the collision-prone virtual channel: if the emit
    round's delivery fails, the item is lost (no retransmission at this
    layer), exactly like a message between real wireless devices.

    State: ``(inbox, outbox)`` tuples of canonical items.
    """

    def __init__(self, vn_id: int, next_hop: dict[int, int]) -> None:
        self.vn_id = vn_id
        #: Static routing table: destination vn -> neighbour vn to forward to.
        self.next_hop = dict(next_hop)

    def init_state(self):
        return ((), ())

    def emit(self, state, vr):
        if not self.is_my_slot(vr):
            return None  # relays only in clean scheduled slots
        _, outbox = state
        if not outbox:
            return None
        dest, body = outbox[0]
        return ("relay", self.next_hop[dest], dest, body)

    def step(self, state, vr, observation):
        inbox, outbox = state
        if self.emit(state, vr) is not None:
            outbox = outbox[1:]
        return self._receive(inbox, outbox, observation)

    def _receive(self, inbox, outbox, observation):
        """``(inbox, outbox)`` with this round's accepted items appended:
        a client's ``send`` naming this node as ingress, or a relay
        naming it as next hop, filed by destination."""
        def accept(dest, body):
            nonlocal inbox, outbox
            if dest == self.vn_id:
                inbox = inbox + ((dest, body),)
            elif dest in self.next_hop:
                outbox = outbox + ((dest, body),)

        for item in observation.messages:
            if item[0] == "cl":
                payload = item[1]
                if (isinstance(payload, tuple) and len(payload) == 4
                        and payload[0] == "send" and payload[1] == self.vn_id):
                    accept(payload[2], payload[3])
            elif item[0] == "vn":
                payload = item[2]
                if (isinstance(payload, tuple) and len(payload) == 4
                        and payload[0] == "relay" and payload[1] == self.vn_id):
                    accept(payload[2], payload[3])
        return (inbox, outbox)
