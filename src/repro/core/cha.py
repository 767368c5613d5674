"""CHAP — the Convergent History Agreement Protocol of Figure 1.

The protocol is factored in two layers:

* :class:`ChaCore` is the pure protocol state machine: colours, ballots,
  the ``prev-instance`` pointer and ``calculate-history``.  It exposes one
  method per protocol event (begin instance, ballot reception, veto
  decisions/receptions) and is driven explicitly.  The virtual-
  infrastructure emulation (Section 4) reuses this core with its own
  eleven-phase schedule.
* :class:`CHAProcess` adapts the core to the simulator's
  :class:`~repro.net.node.Process` interface with the canonical
  three-rounds-per-instance schedule of Section 3 (ballot, veto-1,
  veto-2), contending for a single contention manager every round as the
  paper prescribes.

Colour semantics (Figure 2):

====================  =========  ==========================
phases that went bad  colour     output for the instance
====================  =========  ==========================
none                  green      the computed history
veto-2 only           yellow     ⊥ (but instance is *good*)
veto-1 (and later)    orange     ⊥
ballot (and later)    red        ⊥, and no ballot is stored
====================  =========  ==========================
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Mapping

from ..errors import ProtocolError
from ..net.messages import MIXED_TAGS, Message, RoundBatch
from ..net.node import Process
from ..switches import Switches
from ..types import BOTTOM, Color, Instance, NO_INSTANCE, Round, Sentinel, Value
from .ballot import Ballot, BallotPayload, VetoPayload
from .history import History, HistoryChain, ROOT_CHAIN

#: Rounds per CHA instance in the canonical schedule (Theorem 14's constant).
ROUNDS_PER_INSTANCE = 3

PHASE_BALLOT = 0
PHASE_VETO1 = 1
PHASE_VETO2 = 2

#: Shared empty decoded-payload sequence (read-only by construction:
#: the deliver paths only ever iterate the decoded list).
_NO_PAYLOADS: tuple = ()

#: Batch-memo miss sentinel (``None`` and ``False`` are real values).
_UNDECODED = Sentinel(__name__, "_UNDECODED")


def calculate_history_reference(instance: Instance, prev: Instance,
                                ballots: Mapping[Instance, Ballot]) -> History:
    """The ``calculate-history`` function of Figure 1 (lines 46-54).

    Walks the ``prev-instance`` pointers backwards from ``prev``, adopting
    the stored ballot value at every instance on the chain and bottom
    everywhere else.  ``instance`` is the current (not necessarily good)
    instance and fixes the domain ``1..instance`` of the result.

    This is the seed implementation, kept verbatim as the executable
    specification of the incremental fold :class:`ChaCore` uses by
    default (see :meth:`ChaCore._fold_chain`); the property suite in
    ``tests/core/test_history_properties.py`` pins the two together.
    """
    entries: dict[Instance, Value] = {}
    k = instance
    while k >= 1:
        if k == prev:
            ballot = ballots.get(k)
            if ballot is None:
                raise ProtocolError(
                    f"calculate-history reached instance {k} on the chain "
                    "but no ballot is stored for it"
                )
            entries[k] = ballot.value
            prev = ballot.prev_instance
        k -= 1
    return History(instance, entries)


#: Public alias: the stateless fold *is* the reference implementation —
#: the incremental engine needs per-core state and lives in ChaCore.
calculate_history = calculate_history_reference


class _InstanceMap(dict):
    """A ``status`` / ``ballots`` dict that refuses negative instances
    (instances are ``>= 0``; ``NO_INSTANCE`` is 0): every write goes
    through ``__setitem__``, item by item, as in the slotted views."""

    __slots__ = ()

    def __init__(self, items: Mapping[Instance, Any] = ()) -> None:
        super().__init__()
        self.update(items)

    def __setitem__(self, k: Instance, v: Any) -> None:
        if k < 0:
            raise KeyError(k)
        dict.__setitem__(self, k, v)

    def update(self, items: Any = (), /, **kw: Any) -> None:
        for k, v in dict(items, **kw).items():
            self[k] = v

    def setdefault(self, k: Instance, default: Any = None) -> Any:
        if k not in self:
            self[k] = default
        return self[k]

    def __ior__(self, items: Any) -> "_InstanceMap":
        self.update(items)
        return self


class ChaCore:
    """Protocol state machine for one CHAP participant.

    ``propose`` supplies the input value for each instance (Figure 1,
    line 15); proposals are recorded for the Validity checker.  ``tag``
    labels this participant's wire payloads so several logical CHA
    executions can share a physical channel (used by the emulation).
    """

    def __init__(self, *, propose: Callable[[Instance], Value],
                 tag: Any = "cha",
                 switches: Switches | None = None) -> None:
        self._propose = propose
        self.tag = tag
        switches = Switches.resolve(switches)
        #: Pin this core to the seed re-walking fold (the incremental
        #: chain engine is the default).
        self.reference_history = switches.history
        self.k: Instance = NO_INSTANCE
        self.prev_instance: Instance = NO_INSTANCE
        self.status = {}
        self.ballots = {}
        self.proposals_made: dict[Instance, Value] = {}
        #: Completed folds by chain-head instance: extending the chain by
        #: one good instance reuses the whole fold below it.
        self._fold_cache: dict[Instance, HistoryChain] = {}
        #: Chronological outputs: (instance, History or BOTTOM).
        self.outputs: list[tuple[Instance, History | None]] = []

    status = property(lambda self: self._status, lambda self, mapping:
                      setattr(self, "_status", _InstanceMap(mapping)))
    ballots = property(lambda self: self._ballots, lambda self, mapping:
                       setattr(self, "_ballots", _InstanceMap(mapping)))

    # ------------------------------------------------------------------
    # Ballot phase
    # ------------------------------------------------------------------

    def begin_instance(self) -> BallotPayload:
        """Start the next instance; returns the ballot this node *would*
        broadcast if the contention manager advises it to (lines 14-19)."""
        self.k += 1
        value = self._propose(self.k)
        self.proposals_made[self.k] = value
        self.status[self.k] = Color.GREEN
        return BallotPayload(
            tag=self.tag,
            instance=self.k,
            ballot=Ballot(value, self.prev_instance),
        )

    def begin_instance_send(self, active: bool) -> BallotPayload | None:
        """Start the next instance and produce the ballot-phase wire
        payload iff the contention manager advises broadcasting.

        The slotted core overrides this with a pooled, allocation-free
        path; the reference core keeps the seed behaviour verbatim
        (the payload is built either way and discarded when inactive).
        """
        payload = self.begin_instance()
        return payload if active else None

    def on_ballot_reception(self, ballots: Iterable[Ballot], collision: bool) -> None:
        """Ballot-phase reception (lines 29-32).

        An empty reception or a collision indication paints the instance
        red; otherwise the minimum ballot is adopted.
        """
        received = sorted(ballots)
        if collision or not received:
            self.status[self.k] = Color.RED
        else:
            self.ballots[self.k] = received[0]

    # ------------------------------------------------------------------
    # Veto phases
    # ------------------------------------------------------------------

    def has_instance(self) -> bool:
        """True once the current instance has ballot-phase state — i.e.
        veto phases may act.  False before ``begin_instance`` has run (a
        node powered up mid-grid whose first active round lands in a
        veto phase) and after a checkpoint reset; both are *pre-instance*
        states in which veto phases are inert (send and receive nothing).
        """
        return self.k in self.status

    def wants_veto1(self) -> bool:
        """Broadcast ⟨veto⟩ in veto-1 iff the instance is red (line 21).

        Inert (False) before the first instance has begun."""
        return self.status.get(self.k) is Color.RED

    def veto1_payload(self) -> VetoPayload | None:
        """The veto-1 wire payload, or None when not vetoing.

        The payload-producing twin of :meth:`wants_veto1`; the slotted
        core overrides it with a pooled path."""
        if self.status.get(self.k) is Color.RED:
            return VetoPayload(self.tag, self.k, 1)
        return None

    def on_veto1_reception(self, veto_seen: bool, collision: bool) -> None:
        """Veto-1 reception (lines 33-35): downgrade green to orange."""
        if veto_seen or collision:
            self.status[self.k] = min(Color.ORANGE, self.status[self.k])

    def wants_veto2(self) -> bool:
        """Broadcast ⟨veto⟩ in veto-2 iff red or orange (line 25).

        Inert (False) before the first instance has begun."""
        status = self.status.get(self.k)
        return status is not None and status <= Color.ORANGE

    def veto2_payload(self) -> VetoPayload | None:
        """The veto-2 wire payload, or None when not vetoing."""
        status = self.status.get(self.k)
        if status is not None and status <= Color.ORANGE:
            return VetoPayload(self.tag, self.k, 2)
        return None

    def on_veto2_reception(self, veto_seen: bool, collision: bool) -> tuple[Instance, History | None]:
        """Veto-2 reception and end-of-instance bookkeeping (lines 36-45).

        Downgrades green to yellow on trouble, advances ``prev-instance``
        for good instances, computes the history, and produces the
        instance's output: the history when green, bottom otherwise.
        """
        k = self.k
        status = self.status[k]
        if veto_seen or collision:
            status = min(Color.YELLOW, status)
            self.status[k] = status
        if status.is_good:
            self.prev_instance = k
        output: History | None
        if status is Color.GREEN:
            output = self.current_history()
        else:
            output = BOTTOM
        self.outputs.append((k, output))
        return k, output

    def finish_instance_single_veto(self) -> tuple[Instance, History | None]:
        """End-of-instance bookkeeping for the single-veto ablation
        (two-phase CHA): no second downgrade opportunity — green
        advances ``prev-instance`` and outputs its history, everything
        else outputs bottom."""
        k = self.k
        status = self.status[k]
        output: History | None
        if status is Color.GREEN:
            self.prev_instance = k
            output = self.current_history()
        else:
            output = BOTTOM
        self.outputs.append((k, output))
        return k, output

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def current_history(self) -> History:
        """The history computed from the current chain (line 41).

        Well-defined at any time; emulation replicas use it to derive the
        virtual node's state even in instances whose output is bottom.
        """
        if self.reference_history:
            return calculate_history_reference(
                self.k, self.prev_instance, self.ballots)
        return History._from_chain(
            self.k, self._fold_chain(self.k, self.prev_instance))

    def _fold_chain(self, instance: Instance, prev: Instance, *,
                    floor: Instance = 0) -> HistoryChain:
        """Incremental ``calculate-history``: extend a cached fold.

        Walks the ``prev-instance`` pointers downward only until it meets
        an already-folded chain head (usually the immediately preceding
        good instance), then replays the unseen links on top of the
        shared :class:`~repro.core.history.HistoryChain`.  Matches the
        reference fold exactly, including its quirks: a pointer above
        ``instance`` never matches, an upward or non-positive pointer
        ends the chain, and a pointed-to instance without a stored ballot
        raises (:meth:`_missing_ballot`).  Entries at or below ``floor``
        are excluded (checkpoint-CHA's garbage-collection anchor).
        """
        cache = self._fold_cache
        ballots = self.ballots
        stack: list[tuple[Instance, Value]] = []
        base: HistoryChain | None = None
        limit = instance
        p = prev
        while floor < p <= limit:
            base = cache.get(p)
            if base is not None:
                break
            ballot = ballots.get(p)
            if ballot is None:
                self._missing_ballot(p)
            stack.append((p, ballot.value))
            limit = p - 1  # the reference walk only moves downward
            p = ballot.prev_instance
        if base is None:
            base = ROOT_CHAIN
        for k, v in reversed(stack):
            base = base.child(k, v)
            cache[k] = base
        return base

    def _missing_ballot(self, k: Instance) -> None:
        """Chain reached an instance with no stored ballot (line 49)."""
        raise ProtocolError(
            f"calculate-history reached instance {k} on the chain "
            "but no ballot is stored for it"
        )

    def color_of(self, k: Instance) -> Color:
        """Colour this node assigns instance ``k`` (green if untouched)."""
        return self.status.get(k, Color.GREEN)

    def decided_history(self) -> History | None:
        """The most recent non-bottom output, if any."""
        for _, out in reversed(self.outputs):
            if out is not BOTTOM:
                return out
        return None

    def resident_entries(self) -> int:
        """Stored ballot + status entries (space metric for experiment E9)."""
        return len(self.ballots) + len(self.status)

    # ------------------------------------------------------------------
    # State transfer (used by the emulation's join protocol)
    # ------------------------------------------------------------------

    def snapshot(self) -> dict:
        """A copyable snapshot of the protocol state."""
        return {
            "k": self.k,
            "prev_instance": self.prev_instance,
            "status": dict(self.status),
            "ballots": dict(self.ballots),
        }

    def restore(self, snapshot: Mapping) -> None:
        """Adopt a snapshot produced by :meth:`snapshot`."""
        self.k = snapshot["k"]
        self.prev_instance = snapshot["prev_instance"]
        self.status = snapshot["status"]
        self.ballots = snapshot["ballots"]
        # The adopted ballots may disagree with locally cached folds.
        self._fold_cache = {}


class CHAProcess(Process):
    """CHAP on the canonical 3-round schedule, as a simulator process.

    Every round the node contends for contention manager ``cm_name``
    ("every (correct) node contends for the contention manager Cℓ"); the
    advice only matters in ballot phases.  ``start_round`` shifts the
    phase grid so several ensembles can interleave.
    """

    def __init__(self, *, propose: Callable[[Instance], Value],
                 cm_name: str = "C", tag: Any = "cha",
                 start_round: Round = 0,
                 switches: Switches | None = None,
                 pool_payloads: bool = False) -> None:
        switches = Switches.resolve(switches)
        if switches.core:
            core = ChaCore(propose=propose, tag=tag, switches=switches)
        else:
            from .slotted import SlottedChaCore
            core = SlottedChaCore(
                propose=propose, tag=tag, switches=switches,
                pool_payloads=pool_payloads,
            )
        self._adopt_core(core, switches, cm_name, start_round)

    def _adopt_core(self, core, switches: Switches, cm_name: str,
                    start_round: Round) -> None:
        """Everything ``__init__`` does once the core is built
        (subclasses with another core family build theirs and come
        here)."""
        #: ``core`` picks the seed dict-based core over the slotted array
        #: core; the value travels on to the core for its ``history``.
        self.switches = switches
        self.core = core
        self.cm_name = cm_name
        self.start_round = start_round
        #: The end-of-instance step.  The slotted core's records the
        #: output and returns nothing; the dict core only has the form
        #: that also returns the pair.
        self._end_instance = (core.on_veto2_reception if switches.core
                              else core.end_instance)

    def _phase(self, r: Round) -> int:
        return (r - self.start_round) % ROUNDS_PER_INSTANCE

    def contend(self, r: Round) -> str | None:
        return self.cm_name

    def send(self, r: Round, active: bool) -> Any | None:
        phase = (r - self.start_round) % ROUNDS_PER_INSTANCE
        core = self.core
        if phase == PHASE_BALLOT:
            return core.begin_instance_send(active)
        # The veto payload producers are inert before the first instance
        # has begun (a node powered up mid-grid sends nothing until its
        # first ballot phase comes around).
        if phase == PHASE_VETO1:
            return core.veto1_payload()
        return core.veto2_payload()

    def deliver(self, r: Round, messages: tuple[Message, ...], collision: bool) -> None:
        # The reference engine's entry point: one body, over a private batch.
        self.deliver_batch(r, messages, collision,
                           RoundBatch(dict(enumerate(messages))))

    def deliver_batch(self, r: Round, messages: tuple[Message, ...],
                      collision: bool, batch) -> None:
        """Delivery, with the per-receiver work amortised through the
        shared round batch (:meth:`deliver` hands it a private one).

        The batch knows the round's tag census, so a single-ensemble
        round skips the per-message ``getattr`` scan and a foreign one is
        discarded wholesale.  The derived reception values (the ballot
        list, the veto scan) are memoised on the batch under ``(tag,
        instance, phase)`` — but only by a receiver whose reception
        covers the *whole* broadcast set: receptions are per receiver
        (a transmitter hears only itself; range and drops prune others),
        and two full-coverage receptions are identical.  Partial
        receptions take a private scan.
        """
        core = self.core
        phase = (r - self.start_round) % ROUNDS_PER_INSTANCE
        if phase == PHASE_BALLOT:
            if not messages:
                ballots = _NO_PAYLOADS
            elif len(messages) == len(batch.broadcasts):
                memo = batch.memo
                k = core.k
                key = (core.tag, k, PHASE_BALLOT)
                ballots = memo.get(key, _UNDECODED)
                if ballots is _UNDECODED:
                    ballots = [
                        p.ballot for p in self._decode_mine(messages, batch)
                        if isinstance(p, BallotPayload) and p.instance == k
                    ]
                    memo[key] = ballots
            else:
                k = core.k
                tag = core.tag
                ballots = [
                    m.payload.ballot for m in messages
                    if isinstance(m.payload, BallotPayload)
                    and m.payload.tag == tag and m.payload.instance == k
                ]
            core.on_ballot_reception(ballots, collision)
            return
        if not messages:
            veto = False
        elif len(messages) == len(batch.broadcasts):
            memo = batch.memo
            k = core.k
            key = (core.tag, k, phase)
            veto = memo.get(key, _UNDECODED)
            if veto is _UNDECODED:
                veto = False
                for p in self._decode_mine(messages, batch):
                    if isinstance(p, VetoPayload) and p.instance == k:
                        veto = True
                        break
                memo[key] = veto
        else:
            k = core.k
            tag = core.tag
            veto = any(
                isinstance(m.payload, VetoPayload)
                and m.payload.tag == tag and m.payload.instance == k
                for m in messages
            )
        # Veto phases are inert before the first instance has begun (a
        # mid-grid power-up); a quiet veto-1 reception changes nothing.
        if phase == PHASE_VETO2:
            if core.has_instance():
                self._end_instance(veto, collision)
        elif (veto or collision) and core.has_instance():
            core.on_veto1_reception(veto, collision)

    def _decode_mine(self, messages, batch):
        """The round's payloads carrying this core's tag (memoised).

        Only called on a derived-value memo miss by a receiver whose
        reception covers the whole broadcast set, so the decoded list is
        receiver-independent: every full-coverage reception carries the
        same messages in the same sender-sorted order.
        """
        memo = batch.memo
        tag = self.core.tag
        mine = memo.get(("mine", tag), _UNDECODED)
        if mine is _UNDECODED:
            uniform = batch.uniform_tag()
            if uniform == tag:
                mine = [m.payload for m in messages]
            elif uniform is not MIXED_TAGS:
                mine = _NO_PAYLOADS  # a foreign ensemble's round
            else:
                mine = [m.payload for m in messages
                        if getattr(m.payload, "tag", None) == tag]
            memo[("mine", tag)] = mine
        return mine

    # Convenience passthroughs -----------------------------------------

    @property
    def outputs(self) -> list[tuple[Instance, History | None]]:
        return self.core.outputs

    @property
    def proposals_made(self) -> dict[Instance, Value]:
        return self.core.proposals_made
