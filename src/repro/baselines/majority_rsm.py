"""A majority-quorum replicated-state machine, as a radio strawman.

Section 1.5: "most such protocols require at least a majority of the
nodes to send messages; in a wireless network this creates unacceptable
channel contention and long delays."  This baseline quantifies that
claim.  It is deliberately *charitable* to the classical approach:

* nodes get unique identifiers and a free, perfect TDMA slot assignment
  (no contention between acks — each ack has its own round);
* the leader is fixed and never crashes unless scripted.

Even so, one agreement instance costs ``n + 2`` rounds (propose, ``n``
ack slots, commit) against CHAP's constant 3, and a single lost ack among
the majority aborts the instance.  Experiment E8 compares the decided-
instance throughput of the two protocols on the same channel.

Protocol per instance (synchronous):

1. round 0 — the leader broadcasts ``Propose(k, v)``.
2. rounds 1..n — node ``i`` broadcasts ``Ack(k)`` in round ``i`` iff it
   received the proposal.
3. round n+1 — the leader broadcasts ``Commit(k, v)`` iff it heard a
   majority of acks (counting itself); receivers decide on commit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..net.messages import Message
from ..net.node import Process
from ..types import Instance, NodeId, Round, Value


@dataclass(frozen=True, slots=True)
class Propose:
    instance: Instance
    value: Value


@dataclass(frozen=True, slots=True)
class Ack:
    instance: Instance
    voter: NodeId


@dataclass(frozen=True, slots=True)
class Commit:
    instance: Instance
    value: Value


class MajorityRSMProcess(Process):
    """One participant of the majority-quorum strawman."""

    def __init__(self, *, my_index: int, n: int, is_leader: bool,
                 propose: Any) -> None:
        if not 0 <= my_index < n:
            raise ValueError("my_index must lie in [0, n)")
        self.my_index = my_index
        self.n = n
        self.is_leader = is_leader
        self._propose = propose
        self.rounds_per_instance = n + 2
        #: Decided (instance, value) pairs, in decision order.
        self.decided: list[tuple[Instance, Value]] = []
        self._instance: Instance = 0
        self._current_value: Value | None = None
        self._got_proposal = False
        self._acks_heard = 0

    def _phase(self, r: Round) -> int:
        return r % self.rounds_per_instance

    def send(self, r: Round, active: bool) -> Any | None:
        phase = self._phase(r)
        if phase == 0:
            self._instance += 1
            self._got_proposal = False
            self._acks_heard = 1 if self.is_leader else 0  # leader self-ack
            if self.is_leader:
                self._current_value = self._propose(self._instance)
                self._got_proposal = True
                return Propose(self._instance, self._current_value)
            return None
        if 1 <= phase <= self.n:
            if phase - 1 == self.my_index and self._got_proposal \
                    and not self.is_leader:
                return Ack(self._instance, self.my_index)
            return None
        # Commit round.
        if self.is_leader and self._acks_heard * 2 > self.n:
            return Commit(self._instance, self._current_value)
        return None

    def deliver(self, r: Round, messages: tuple[Message, ...],
                collision: bool) -> None:
        # An empty reception updates no state (per-instance bookkeeping
        # lives in :meth:`send`), and only the leader reads ack slots.
        if not messages:
            return
        phase = self._phase(r)
        instance = self._instance
        if phase == 0:
            for m in messages:
                p = m.payload
                if isinstance(p, Propose) and p.instance == instance:
                    self._got_proposal = True
                    self._current_value = p.value
        elif phase <= self.n:
            if self.is_leader:
                for m in messages:
                    p = m.payload
                    if isinstance(p, Ack) and p.instance == instance:
                        self._acks_heard += 1
        else:
            for m in messages:
                p = m.payload
                if isinstance(p, Commit) and p.instance == instance:
                    self.decided.append((p.instance, p.value))

    @property
    def decided_count(self) -> int:
        return len(self.decided)

