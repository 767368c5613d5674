"""The process interface run by the simulator, and crash-fault plumbing.

Every protocol in this library (CHAP replicas, emulation replicas, clients,
baselines) implements :class:`Process`.  A round proceeds in three steps
for every alive node:

1. :meth:`Process.contend` — name the contention manager the node contends
   for this round (or ``None``).  The simulator collects all contenders,
   asks each contention manager for advice, and passes the verdict down.
2. :meth:`Process.send` — given the advice, return a payload to broadcast
   or ``None`` to listen.
3. :meth:`Process.deliver` — receive the round's messages plus the
   collision-detector flag, and update local state.

Crash faults follow the paper: "Nodes can fail by crashing at any point
during the execution".  A :class:`CrashSchedule` can stop a node either
*before* its send step (it falls silent immediately) or *after* it (its
last broadcast escapes but it never sees the round's receptions) — the
latter is exactly the footnote-2 scenario where a node decides, informs
nobody, and dies.
"""

from __future__ import annotations

import enum
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

from ..types import NodeId, Round
from .messages import Message, RoundBatch


class Process(ABC):
    """A deterministic per-node protocol driven by the simulator."""

    def contend(self, r: Round) -> str | None:
        """Name of the contention manager contended for in round ``r``.

        The default never contends; protocols that need channel access
        through a contention manager override this.
        """
        return None

    @abstractmethod
    def send(self, r: Round, active: bool) -> Any | None:
        """Payload to broadcast in round ``r``, or ``None`` to listen.

        ``active`` is the contention-manager advice (always ``False`` for
        non-contenders).  Property 3(3) guarantees advice only goes to
        contenders.
        """

    @abstractmethod
    def deliver(self, r: Round, messages: tuple[Message, ...], collision: bool) -> None:
        """Receive round ``r``'s messages and collision indication."""


class Ensemble(ABC):
    """Processes the batched round engine steps as one.

    An ensemble stands for ``processes``, registered at a contiguous run
    of node ids — ``nodes``, which
    :meth:`~repro.net.simulator.Simulator.add_ensemble` finds and sets —
    that may share state: a lockstep cohort.  The batched engine calls it
    once per round in place of its members' own ``contend`` / ``send``
    / ``deliver``, at its first member's position in each
    node-ordered sweep; ``members`` are the member node ids, ascending,
    that take part in that sweep (present, and still sending or
    receiving).  The contention managers, the adversary, the detector
    and the round record stay per node; ``flags`` and ``delivered`` too,
    but a round the channel resolved per coverage class fills them per
    class.  The reference engine ignores ensembles and calls every
    process on its own, so an ensemble must leave its processes correct
    when stepped alone.
    """

    #: The members' processes, in node order.
    processes: list[Process]
    #: The node ids they are registered at.
    nodes: range

    @abstractmethod
    def contend(self, r: Round) -> str | None:
        """The contention manager every member contends for in ``r``."""

    @abstractmethod
    def send_round(self, r: Round, members: list[NodeId],
                   advised: "set[NodeId] | frozenset[NodeId]") -> list[tuple[NodeId, Any]]:
        """The members' broadcasts, as ``(node, payload)`` pairs in node
        order; ``advised`` holds the node ids advised to broadcast."""

    @abstractmethod
    def deliver_round(self, r: Round, members: list[NodeId],
                      delivered: Mapping[NodeId, tuple[Message, ...]],
                      flags: Mapping[NodeId, bool],
                      batch: RoundBatch) -> None:
        """Deliver round ``r`` to the members: each member's messages
        are ``delivered[node]`` and its collision flag ``flags[node]``;
        ``batch`` is the round's broadcasts, shared by every ensemble,
        where reception work that depends only on what was sent is
        done once."""


class CrashPoint(enum.Enum):
    """When within a round a crash takes effect."""

    #: The node does not broadcast and does not receive in the round.
    BEFORE_SEND = "before_send"
    #: The node broadcasts (if it chose to) but never receives the round.
    AFTER_SEND = "after_send"


@dataclass(frozen=True, slots=True)
class Crash:
    """A single crash event."""

    node: NodeId
    round: Round
    point: CrashPoint = CrashPoint.BEFORE_SEND


class CrashSchedule:
    """A set of crash events, at most one per node."""

    def __init__(self, crashes: Iterable[Crash] = ()) -> None:
        self._by_node: dict[NodeId, Crash] = {}
        for crash in crashes:
            if crash.node in self._by_node:
                raise ValueError(f"node {crash.node} crashes twice")
            self._by_node[crash.node] = crash

    @classmethod
    def of(cls, schedule: Mapping[NodeId, Round]) -> "CrashSchedule":
        """Shorthand: every listed node crashes before send in its round."""
        return cls(Crash(node, r) for node, r in schedule.items())

    def crash_for(self, node: NodeId) -> Crash | None:
        return self._by_node.get(node)

    def crashed_by(self, node: NodeId, r: Round) -> bool:
        """True when ``node`` has fully crashed strictly before round ``r``
        begins (i.e. it takes no action at all in round ``r``)."""
        crash = self._by_node.get(node)
        if crash is None:
            return False
        if crash.point is CrashPoint.BEFORE_SEND:
            return r >= crash.round
        return r > crash.round

    def sends_in(self, node: NodeId, r: Round) -> bool:
        """True when ``node`` still executes its send step in round ``r``."""
        crash = self._by_node.get(node)
        if crash is None:
            return True
        if crash.point is CrashPoint.BEFORE_SEND:
            return r < crash.round
        return r <= crash.round

    def receives_in(self, node: NodeId, r: Round) -> bool:
        """True when ``node`` still executes its deliver step in round ``r``."""
        crash = self._by_node.get(node)
        if crash is None:
            return True
        return r < crash.round

    def __iter__(self):
        return iter(self._by_node.values())

    def __len__(self) -> int:
        return len(self._by_node)
