"""CHAP — the Convergent History Agreement Protocol of Figure 1.

The protocol is factored in two layers:

* :class:`ChaCore` is the pure protocol state machine: colours, ballots,
  the ``prev-instance`` pointer and ``calculate-history``.  It is driven
  explicitly through the step surface every core shares: ``step_begin``
  and ``propose`` (with ``ballot_payload``), ``step_ballot``,
  ``veto_due`` and ``step_veto1``, then ``step_end``
  (``step_end_single`` for the two-phase ablation), plus
  ``has_instance`` and ``detach``.  :func:`build_core` picks the core
  a process or emulation replica runs.  The virtual-infrastructure
  emulation (Section 4) drives the same surface on its own
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

from operator import itemgetter
from typing import Any, Callable, Iterable, Mapping

from ..errors import ProtocolError
from ..net.messages import MIXED_TAGS, Message, RoundBatch
from ..net.node import Ensemble, Process
from ..switches import Switches
from ..types import BOTTOM, Color, Instance, NO_INSTANCE, NodeId, Round, Sentinel, Value
from .ballot import Ballot, BallotPayload, VetoPayload
from .history import History, HistoryChain, ROOT_CHAIN, _intern_key

#: Rounds per CHA instance in the canonical schedule (Theorem 14's constant).
ROUNDS_PER_INSTANCE = 3

PHASE_BALLOT = 0
PHASE_VETO1 = 1
PHASE_VETO2 = 2

#: Shared empty decoded-payload sequence (read-only by construction:
#: the deliver paths only ever iterate the decoded list).
_NO_PAYLOADS: tuple = ()

#: A lone step's group: the process itself, at a placeholder node id
#: (also its advice when active).
_ALONE = (0,)

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
                 switches: Switches = Switches()) -> None:
        self._propose = propose
        self.tag = tag
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
    # Protocol steps (the surface every core shares)
    # ------------------------------------------------------------------

    def step_begin(self) -> Instance:
        """Start the next instance: advance ``k`` and paint it green
        (lines 14-16).  Each node then records its own proposal
        (:meth:`propose`)."""
        self.k += 1
        self.status[self.k] = Color.GREEN
        return self.k

    def propose(self, k: Instance) -> Value:
        """Call the proposer for instance ``k`` and record the proposal
        (line 15; the record is what the Validity checker reads)."""
        value = self.proposals_made[k] = self._propose(k)
        return value

    def ballot_payload(self, value: Value) -> BallotPayload:
        """The ballot-phase wire payload for this node's proposal."""
        return BallotPayload(tag=self.tag, instance=self.k,
                             ballot=Ballot(value, self.prev_instance))

    def detach(self) -> None:
        """Prepare a lone step.  A dict core never shares its storage;
        the slotted core leaves a shared cohort store here."""

    def step_ballot(self, ballots: Iterable[Ballot], collision: bool) -> None:
        """Ballot-phase reception (lines 29-32).

        An empty reception or a collision indication paints the instance
        red; otherwise the minimum ballot is adopted.
        """
        received = sorted(ballots)
        if collision or not received:
            self.status[self.k] = Color.RED
        else:
            self.ballots[self.k] = received[0]

    def has_instance(self) -> bool:
        """True once the current instance has ballot-phase state — i.e.
        veto phases may act.  False before ``step_begin`` has run (a
        node powered up mid-grid whose first active round lands in a
        veto phase) and after a checkpoint reset; both are *pre-instance*
        states in which veto phases are inert (send and receive nothing).
        """
        return self.k in self.status

    def veto_due(self, phase: int) -> bool:
        """Whether this node broadcasts ⟨veto⟩ in veto phase ``phase``:
        in veto-1 iff the instance is red (line 21), in veto-2 iff red
        or orange (line 25).  Inert (False) before the first instance
        has begun."""
        status = self.status.get(self.k)
        if phase == 1:
            return status is Color.RED
        return status is not None and status <= Color.ORANGE

    def step_veto1(self, veto_seen: bool, collision: bool) -> None:
        """Veto-1 reception (lines 33-35): downgrade green to orange."""
        if veto_seen or collision:
            self.status[self.k] = min(Color.ORANGE, self.status[self.k])

    def step_end(self, veto_seen: bool, collision: bool) -> None:
        """Veto-2 reception and end-of-instance bookkeeping (lines 36-45).

        Downgrades green to yellow on trouble, advances ``prev-instance``
        for good instances, computes the history, and logs the
        instance's output (read it as ``outputs[-1]``): the history when
        green, bottom otherwise.
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

    def step_end_single(self) -> None:
        """End-of-instance bookkeeping for the single-veto ablation
        (two-phase CHA): no second downgrade opportunity — green
        advances ``prev-instance`` and logs its history, everything
        else logs bottom."""
        k = self.k
        status = self.status[k]
        output: History | None
        if status is Color.GREEN:
            self.prev_instance = k
            output = self.current_history()
        else:
            output = BOTTOM
        self.outputs.append((k, output))

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


def build_core(*, propose: Callable[[Instance], Value], tag: Any = "cha",
               switches: Switches = Switches(),
               reducer: Callable[[Any, Instance, Value], Any] | None = None,
               initial_state: Any = None):
    """The protocol core a process or emulation replica runs.

    ``switches.core`` picks the dict core (the reference twin) over the
    slotted one; a ``reducer`` picks the checkpoint variant of Section
    3.5, folding from ``initial_state``.
    """
    from .checkpoint import CheckpointChaCore
    from .slotted import SlottedChaCore, SlottedCheckpointChaCore

    kwargs: dict[str, Any] = dict(propose=propose, tag=tag, switches=switches)
    if reducer is not None:
        kwargs.update(reducer=reducer, initial_state=initial_state)
    if switches.core:
        return (ChaCore if reducer is None else CheckpointChaCore)(**kwargs)
    return (SlottedChaCore if reducer is None else SlottedCheckpointChaCore)(
        **kwargs)


#: The veto intern of :func:`send_runs`: the round its payloads belong
#: to, and the round's one payload per ``(tag, instance, phase)``.
_veto_round: Any = None
_vetoes: dict[tuple, VetoPayload] = {}


def _veto(r: Any, tag: Any, k: Instance, phase: int) -> VetoPayload:
    """Round ``r``'s one veto payload for ``(tag, k, phase)``.

    Every veto payload is built here, so equal ones of a round are one
    object on every path (wire objects are immutable, so sharing is
    invisible but in pickles, and the paths share alike).  The tag is
    keyed type-exactly (``1`` and ``True`` never share), by identity if
    it is not internable.  The table holds one round's entries."""
    global _veto_round
    if r != _veto_round:
        _vetoes.clear()
        _veto_round = r
    try:
        key = (_intern_key(tag), k, phase)
    except TypeError:
        key = (id(tag), k, phase)  # its entry keeps the tag alive
    payload = _vetoes.get(key)
    if payload is None:
        payload = _vetoes[key] = VetoPayload(tag, k, phase)
    return payload


def send_runs(r: Any, phase: int, runs, advised) -> list[tuple[Any, Any]]:
    """The send step of CHA phase ``phase`` in round ``r`` (a real round,
    or the emulation's phase position) over ``runs`` as ``(node,
    payload)`` pairs in node order; ``advised`` holds the advised nodes.

    A run is ``(members, node ids, first, sweep)``: processes or
    emulation replicas, in node order, that share one store, whether the
    run is that store's first, and — for a long run — the members'
    prebound ``(proposer, proposals_made)`` pairs and members by node
    (:class:`SplitRuns`).  The store's part of a step is applied once;
    each member proposes (:meth:`ChaCore.propose`, unrolled through the
    pairs) and each advised one builds its own ballot payload.  Every
    vetoing member sends the round's one veto payload (:func:`_veto`),
    looked up again only for a run whose ``k`` or tag object differs."""
    out = []
    if phase == PHASE_BALLOT:
        for group, nodes, first, sweep in runs:
            core = group[0].core
            k = core.step_begin() if first else core.k
            if sweep is None:
                for member, node in zip(group, nodes):
                    value = member.core.propose(k)
                    if advised and node in advised:
                        out.append((node, member._ballot_payload(value)))
                continue
            proposers, by_node = sweep
            for propose, made in proposers:
                made[k] = propose(k)
            for node in sorted(by_node.keys() & advised):  # advised only
                member = by_node[node]
                out.append((node, member._ballot_payload(
                    member.core.proposals_made[k])))
        return out
    # The veto payload producers are inert before the first instance
    # has begun (a node powered up mid-grid sends nothing until its
    # first ballot phase comes around).
    payload = tag = None
    for group, nodes, _, _ in runs:
        core = group[0].core
        if core.veto_due(phase):
            if (payload is None or core.tag is not tag
                    or core.k != payload.instance):
                tag = core.tag
                payload = _veto(r, tag, core.k, phase)
            out += [(node, payload) for node in nodes]
    return out


class SplitRuns:
    """A sweep over ``members`` (node id -> member) and their ``store``:
    called with the ``takers`` (node ids in node order), it forks out
    every member on the store not among them and returns ``(runs,
    shared, solo)`` — :func:`send_runs`'s runs (the store's members
    between the others, each of those a run of its own) and the
    ``(member, node)`` pairs on and off the store — through ``finish``
    if given.  Cached, with the runs' prebound proposers, while
    ``takers`` is one object and nobody left."""

    __slots__ = ("members", "store", "finish", "_last")

    def __init__(self, members: Mapping[NodeId, Any], store: Any,
                 finish: Callable[[tuple], tuple] | None = None) -> None:
        self.members, self.finish = members, finish
        self.rebind(store)

    def rebind(self, store: Any) -> None:
        """Sweep over ``store`` from now on (a merge may have moved it)."""
        self.store, self._last = store, (None, 0, None)

    def __call__(self, takers) -> tuple:
        members, store, last = self.members, self.store, self._last
        if last[0] is takers and last[1] == len(store.members):
            return last[2]
        if len(takers) < len(members):
            taking = set(takers)
            for node, member in members.items():
                if node not in taking:
                    member.core.detach()
        runs: list[tuple] = []
        shared: list[tuple] = []
        solo: list[tuple] = []
        for node in takers:
            member = members[node]
            if member.core._c is not store:
                solo.append((member, node))
                runs.append(((member,), (node,), True))
            elif runs and runs[-1][0][0].core._c is store:
                runs[-1][0].append(member)
                runs[-1][1].append(node)
                shared.append((member, node))
            else:
                runs.append(([member], [node], not shared))
                shared.append((member, node))
        # Prebinding does not pay on a VI site's four replicas.
        runs = [(group, nodes, first, None if len(group) < 5 else (
            [(m.core._propose, m.core.proposals_made) for m in group],
            dict(zip(nodes, group)))) for group, nodes, first in runs]
        split = (runs, shared, solo)
        if self.finish is not None:
            split = self.finish(split)
        self._last = (takers, len(store.members), split)
        return split


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
                 switches: Switches = Switches()) -> None:
        self.core = build_core(propose=propose, tag=tag, switches=switches)
        self.cm_name = cm_name
        self.start_round = start_round

    #: Rounds per instance of the schedule: ballot, veto-1, veto-2.
    rounds_per_instance = ROUNDS_PER_INSTANCE
    #: Whether the last veto phase is veto-1's, ending the instance
    #: (the two-phase ablation) rather than veto-2.
    single_veto = False

    def contend(self, r: Round) -> str | None:
        return self.cm_name

    # -- the phase machine, over runs of processes -----------------------
    #
    # ``send`` / ``deliver`` run it over this process alone (a lone
    # step: a slotted core leaves a shared store first); the ensemble
    # (:class:`CHAEnsemble`) runs it once per round over its members, a
    # lockstep cohort's store stepped once for all of them.

    def send(self, r: Round, active: bool) -> Any | None:
        self.core.detach()
        out = send_runs(r, (r - self.start_round) % self.rounds_per_instance,
                        (((self,), _ALONE, True, None),),
                        _ALONE if active else ())
        return out[0][1] if out else None

    def _ballot_payload(self, value: Value) -> Any:
        """This node's ballot-phase wire payload for its proposal."""
        return self.core.ballot_payload(value)

    def deliver(self, r: Round, messages: tuple[Message, ...], collision: bool) -> None:
        self.core.detach()
        self._deliver_group(r, messages, collision,
                            RoundBatch(dict(enumerate(messages))))

    def _deliver_group(self, r: Round, messages: tuple[Message, ...],
                       collision: bool, batch) -> None:
        """The deliver step of this process's store — of every member
        sharing it, whose receptions all equal ``messages`` with flag
        ``collision`` — with the decoding amortised through the shared
        round batch (:meth:`deliver` hands it a private one).

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
        phase = (r - self.start_round) % self.rounds_per_instance
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
            core.step_ballot(ballots, collision)
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
            veto = False
            for m in messages:
                p = m.payload
                if (isinstance(p, VetoPayload) and p.tag == tag
                        and p.instance == k):
                    veto = True
                    break
        # Veto phases are inert before the first instance has begun (a
        # mid-grid power-up); a quiet veto-1 reception changes nothing.
        if phase != self.rounds_per_instance - 1:
            if (veto or collision) and core.has_instance():
                core.step_veto1(veto, collision)
        elif core.has_instance():
            if self.single_veto:
                # No second chance: trouble demotes green straight to
                # orange, and only green advances prev and outputs.
                core.step_veto1(veto, collision)
                core.step_end_single()
            else:
                core.step_end(veto, collision)

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


class CHAEnsemble(Ensemble):
    """A lockstep cohort of CHA-family processes, stepped as one.

    ``processes`` — fresh processes of one class and schedule with
    slotted cores built alike, in node order — are made to share one
    cohort store
    (:func:`~repro.core.slotted.form_cohort`), and each round the phase
    machine runs once over the members still on it.  Before a step, a
    member that does not take part (a crash, ``AFTER_SEND`` included),
    hears less than the whole broadcast set or gets the minority's
    collision flag is forked out to a private store, and is stepped on
    its own, in its place in node order.  At the end of an instance in
    which every member's input was equal, the forked members whose state
    is the store's rejoin it (:func:`~repro.core.slotted.rejoin`).
    """

    def __init__(self, processes: Iterable[CHAProcess]) -> None:
        from .slotted import form_cohort

        procs = list(processes)
        # The size first: an empty list has no lead to compare with.
        if len(procs) < 2 or any(
                type(p) is not type(procs[0])
                or p.start_round != procs[0].start_round
                or p.cm_name != procs[0].cm_name for p in procs):
            raise ValueError("an ensemble is two or more processes of one "
                             "class and schedule")
        form_cohort([p.core for p in procs])
        self.processes = procs
        self._odd = -1  # the last round some member's input differed
        self.nodes = range(len(procs))  # until add_ensemble sets the ids

    @property
    def nodes(self) -> range:
        return self._nodes

    @nodes.setter
    def nodes(self, nodes: range) -> None:
        self._nodes = nodes
        self._split = SplitRuns(dict(zip(nodes, self.processes)),
                                self.processes[0].core._c, self._project)

    @staticmethod
    def _project(split: tuple) -> tuple:
        """``(runs, lead, solo pairs, nodes on the store, takers' getter)``."""
        runs, on_store, solo = split
        shared = [node for _, node in on_store]
        takers = shared + [node for _, node in solo]
        return (runs, on_store[0][0] if on_store else None, solo,
                shared, itemgetter(*takers) if len(takers) > 1 else None)

    def contend(self, r: Round) -> str | None:
        return self.processes[0].cm_name

    def send_round(self, r: Round, members: list[NodeId],
                   advised) -> list[tuple[NodeId, Any]]:
        lead = self.processes[0]
        return send_runs(r, (r - lead.start_round) % lead.rounds_per_instance,
                         self._split(members)[0], advised)

    def deliver_round(self, r: Round, members: list[NodeId], delivered,
                      flags, batch: RoundBatch) -> None:
        split = self._split(members)
        shared, get = split[3], split[4]
        if get is not None and not batch.uniform:
            nb = len(batch.broadcasts)
            heard = get(flags)
            if ((True in heard and False in heard)
                    or (nb and min(map(len, get(delivered))) < nb)):
                self._odd = r
                self._fork_odd(shared, delivered, flags, nb)
                split = self._split(members)
        lead, solo = split[1], split[2]
        # Node order: the store is stepped at its first member's place
        # among the forked members, so a step that raises leaves the
        # same members unstepped as the per-node loop would.
        at = split[3][0] if lead is not None else None
        for proc, node in solo:
            if at is not None and node > at:
                lead._deliver_group(r, delivered[at], flags[at], batch)
                at = None
            proc._deliver_group(r, delivered[node], flags[node], batch)
        if at is not None:
            lead._deliver_group(r, delivered[at], flags[at], batch)
        if solo:
            first = self.processes[0]
            phase = (r - first.start_round) % first.rounds_per_instance
            if (phase == first.rounds_per_instance - 1
                    and self._odd < r - phase):
                self._rejoin(members)

    def _rejoin(self, members: list[NodeId]) -> None:
        """Merge the takers whose state is the store's back into it (into
        the first taker's, which becomes the store, if none is on it)."""
        from .slotted import rejoin

        procs, first, split = self.processes, self.nodes.start, self._split
        cores = [procs[node - first].core for node in members]
        lead = next((c for c in cores if c._c is split.store), cores[0])
        if rejoin(lead, cores):
            split.rebind(lead._c)

    def _fork_odd(self, shared: list[NodeId], delivered, flags,
                  nb: int) -> None:
        """Fork out the members on the store whose input leaves the
        common path: a partial reception, or the minority's flag among
        the full ones."""
        full = [node for node in shared if len(delivered[node]) == nb]
        flag = 2 * sum(1 for node in full if flags[node]) > len(full)
        procs = self.processes
        first = self.nodes.start
        for node in shared:
            if len(delivered[node]) != nb or flags[node] != flag:
                procs[node - first].core.detach()
