"""Channel adversaries: pre-stabilisation message loss and false collisions.

Section 2 of the paper allows collisions "for arbitrary and unpredictable
reasons" before the stabilisation round ``rcf``; after ``rcf`` only channel
contention loses messages.  Independently, the collision detector may emit
false positives before its own accuracy round ``racc`` (Property 2).

The adversary owns both knobs:

* :meth:`Adversary.drops` — which tentative deliveries to destroy in a
  round (exercised only while ``r < rcf``; the channel enforces this).
* :meth:`Adversary.false_collision` — whether to inject a spurious
  collision indication at a node (exercised only while ``r < racc``; the
  detector enforces this).

Adversaries see sender ids and full delivery maps: the adversary is part
of the *environment*, not of the anonymous protocol.
"""

from __future__ import annotations

# Only the seedable generator class is imported: every adversary owns a
# private random.Random so composed adversaries can never couple through
# (or perturb) the process-global RNG stream.
from random import Random
from abc import ABC, abstractmethod
from typing import Iterable, Mapping

from ..types import NodeId, Round
from .messages import Message


class Adversary(ABC):
    """Decides message drops and spurious collision indications."""

    #: :meth:`false_collision` is always False, advancing no state.
    spurious_free = False

    @abstractmethod
    def drops(self, r: Round,
              tentative: Mapping[NodeId, tuple[Message, ...]]) -> dict[NodeId, frozenset[NodeId]]:
        """Senders whose message each receiver should lose in round ``r``.

        ``tentative`` maps each receiver to the messages the physical
        channel would deliver absent adversarial interference.  The return
        value maps receiver ids to the set of *sender* ids to suppress.
        Receivers absent from the result lose nothing.
        """

    @abstractmethod
    def false_collision(self, r: Round, node: NodeId) -> bool:
        """Whether to inject a spurious collision indication at ``node``."""


class NoAdversary(Adversary):
    """The benign environment: no drops, no false collisions."""

    spurious_free = True

    def drops(self, r, tentative):  # noqa: D102 - interface documented above
        return {}

    def false_collision(self, r, node):  # noqa: D102
        return False


class RandomLossAdversary(Adversary):
    """Seeded i.i.d. loss: each (receiver, message) pair drops with ``p_drop``.

    Each dropped delivery is also a candidate false-collision trigger; in
    addition, ``p_false`` injects collision indications out of thin air to
    stress eventual accuracy.  With ``p_false == 0`` it is spurious-free:
    it skips its own false-collision stream, where no draw falls below 0.
    """

    def __init__(self, *, p_drop: float, p_false: float = 0.0, seed: int = 0) -> None:
        if not (0.0 <= p_drop <= 1.0 and 0.0 <= p_false <= 1.0):
            raise ValueError("probabilities must lie in [0, 1]")
        self._p_drop = p_drop
        self._p_false = p_false
        self._rng = Random(seed)
        # Independent stream for false collisions so that drop decisions do
        # not perturb false-collision decisions across configurations.
        self._rng_false = Random(seed ^ 0x5F5E_100)
        self.spurious_free = p_false == 0

    def drops(self, r, tentative):
        out: dict[NodeId, frozenset[NodeId]] = {}
        for receiver in sorted(tentative):
            messages = tentative[receiver]
            if not messages:  # no draw to make
                continue
            doomed = frozenset(
                msg.sender
                for msg in messages
                if self._rng.random() < self._p_drop
            )
            if doomed:
                out[receiver] = doomed
        return out

    def false_collision(self, r, node):
        return (not self.spurious_free
                and self._rng_false.random() < self._p_false)


class ScriptedAdversary(Adversary):
    """Fully scripted interference for targeted tests.

    ``drop_script`` maps ``(round, receiver)`` to either the string
    ``"all"`` (lose everything) or an iterable of sender ids to lose.
    ``false_script`` is a set of ``(round, node)`` pairs at which a
    spurious collision indication fires.
    """

    ALL = "all"

    def __init__(self,
                 drop_script: Mapping[tuple[Round, NodeId], object] | None = None,
                 false_script: Iterable[tuple[Round, NodeId]] | None = None) -> None:
        self._drop_script = dict(drop_script or {})
        self._false_script = set(false_script or ())

    def drops(self, r, tentative):
        out: dict[NodeId, frozenset[NodeId]] = {}
        for receiver, msgs in tentative.items():
            directive = self._drop_script.get((r, receiver))
            if directive is None:
                continue
            if directive == self.ALL:
                out[receiver] = frozenset(m.sender for m in msgs)
            else:
                wanted = frozenset(directive)  # type: ignore[arg-type]
                out[receiver] = frozenset(
                    m.sender for m in msgs if m.sender in wanted
                )
        return out

    def false_collision(self, r, node):
        return (r, node) in self._false_script


class PartitionAdversary(Adversary):
    """Splits the nodes into groups that cannot hear each other.

    While ``r < until_round``, a message crossing group boundaries is
    dropped.  This reproduces the footnote-2 scenario of the paper: two
    replicas that temporarily cannot exchange messages, one of which may
    decide and crash.
    """

    def __init__(self, groups: Iterable[Iterable[NodeId]], *, until_round: Round) -> None:
        self._group_of: dict[NodeId, int] = {}
        for idx, group in enumerate(groups):
            for node in group:
                if node in self._group_of:
                    raise ValueError(f"node {node} appears in two partition groups")
                self._group_of[node] = idx
        self._until = until_round

    def drops(self, r, tentative):
        if r >= self._until:
            return {}
        out: dict[NodeId, frozenset[NodeId]] = {}
        for receiver, msgs in tentative.items():
            rg = self._group_of.get(receiver)
            doomed = frozenset(
                m.sender for m in msgs
                if self._group_of.get(m.sender) != rg
            )
            if doomed:
                out[receiver] = doomed
        return out

    def false_collision(self, r, node):
        return False


class TargetedDropAdversary(Adversary):
    """Suppresses every delivery from a fixed set of senders.

    While ``start <= r < until``, any message whose sender is in
    ``senders`` is destroyed at every receiver — the "jam one node's
    transmitter" attack.  With ``until=None`` the suppression never ends
    on its own (the channel still stops honouring it at ``rcf``).
    """

    def __init__(self, senders: Iterable[NodeId], *,
                 start: Round = 0, until: Round | None = None) -> None:
        self._senders = frozenset(senders)
        self._start = start
        self._until = until

    def _active(self, r: Round) -> bool:
        return r >= self._start and (self._until is None or r < self._until)

    def drops(self, r, tentative):
        if not self._active(r):
            return {}
        out: dict[NodeId, frozenset[NodeId]] = {}
        for receiver, msgs in tentative.items():
            doomed = frozenset(
                m.sender for m in msgs if m.sender in self._senders
            )
            if doomed:
                out[receiver] = doomed
        return out

    def false_collision(self, r, node):
        return False


class NoiseBurstAdversary(Adversary):
    """Pure detector noise: seeded false-collision bursts, no drops.

    While ``start <= r < until``, each node independently receives a
    spurious collision indication with probability ``p_false`` per round.
    Owns a private :class:`random.Random` keyed by ``(seed, node)`` so the
    per-node streams are independent of visitation order.
    """

    def __init__(self, *, p_false: float, start: Round = 0,
                 until: Round | None = None, seed: int = 0) -> None:
        if not 0.0 <= p_false <= 1.0:
            raise ValueError("p_false must lie in [0, 1]")
        self._p_false = p_false
        self._start = start
        self._until = until
        self._seed = seed
        self._rngs: dict[NodeId, Random] = {}

    def drops(self, r, tentative):
        return {}

    def false_collision(self, r, node):
        if r < self._start or (self._until is not None and r >= self._until):
            return False
        rng = self._rngs.get(node)
        if rng is None:
            rng = self._rngs[node] = Random((self._seed << 20) ^ (node + 1))
        return rng.random() < self._p_false


class WindowAdversary(Adversary):
    """Gates another adversary to a round window ``[start, until)``.

    Outside the window the inner adversary is not consulted at all, so
    its RNG streams advance only while the window is open — a windowed
    run is a prefix-faithful replay of the unwindowed one.
    """

    def __init__(self, inner: Adversary, *, start: Round = 0,
                 until: Round | None = None) -> None:
        self._inner = inner
        self._start = start
        self._until = until

    def _active(self, r: Round) -> bool:
        return r >= self._start and (self._until is None or r < self._until)

    def drops(self, r, tentative):
        return self._inner.drops(r, tentative) if self._active(r) else {}

    def false_collision(self, r, node):
        return self._inner.false_collision(r, node) if self._active(r) else False


class ComposedAdversary(Adversary):
    """Union of several adversaries: drops and false collisions combine.

    Every part is consulted every round (no short-circuiting), so seeded
    parts consume their private RNG streams at the same rate whether or
    not a sibling already decided to interfere — composition never
    perturbs a part's behaviour relative to running it alone.
    """

    def __init__(self, *parts: Adversary) -> None:
        self._parts = parts

    @property
    def parts(self) -> tuple[Adversary, ...]:
        return tuple(self._parts)

    def drops(self, r, tentative):
        out: dict[NodeId, frozenset[NodeId]] = {}
        for part in self._parts:
            for receiver, senders in part.drops(r, tentative).items():
                out[receiver] = out.get(receiver, frozenset()) | senders
        return out

    def false_collision(self, r, node):
        # Evaluate every part (no any()-short-circuit): parts with seeded
        # state must see the same query sequence regardless of siblings.
        fired = [part.false_collision(r, node) for part in self._parts]
        return any(fired)
