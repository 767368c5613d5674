"""The quasi-unit-disk, collision-prone broadcast channel of Section 2.

Reception rule (paper, Section 2): *after* the channel-stabilisation round
``rcf``, if ``pi`` broadcasts ``m`` in round ``r`` then a non-failed ``pj``
within distance ``R1`` of ``pi`` receives ``m`` provided no other node
within distance ``R2`` of ``pj`` broadcasts in round ``r``.  Before
``rcf`` the adversary may additionally drop any subset of deliveries.

Conventions this implementation fixes (documented in DESIGN.md §5):

* A broadcaster "receives" its own message (it knows what it sent) and
  never receives anyone else's in the same slot — it is busy transmitting,
  and any concurrent in-range transmission counts as contention at it.
* Contention is counted per *receiver*: two concurrent broadcasters within
  ``R2`` of a receiver destroy each other's messages at that receiver.

For the collision detector the channel also reports ground truth per
receiver: whether some message broadcast within ``R1`` was lost
(:class:`Reception.lost_within_r1`, the completeness trigger of Property
1) and whether some message broadcast within ``R2`` was lost
(:class:`Reception.lost_within_r2`, the accuracy licence of Property 2).

Two implementations of the reception rule coexist:

* :meth:`Channel._deliver_reference` — the straightforward all-pairs
  scan, kept as the executable specification.
* :meth:`Channel._deliver_indexed` — the default fast path: a
  :class:`~repro.net.index.SpatialGridIndex` turns the per-receiver scans
  into per-sender cell lookups that fill one *saturating record* per
  receiver.

The record.  The reception rule never asks *which* senders a node could
hear past four facts: none, exactly one (who?) or more than one within
``R2``, and whether any of them is within ``R1``.  So the indexed path
keeps, per receiver some sender reached, one of three forms of
``(sole R2 sender's reception, some R2 sender is inside R1)`` — a node no
sender reached has no entry:

* ``(clean, near)`` — one sender so far, ``clean`` the undisturbed
  :class:`Reception` of its message, inside ``R1`` or not;
* ``(None, False)`` — two or more, none inside ``R1`` yet (contended);
* ``(None, True)`` — two or more, one of them inside ``R1``: **final**.

A final receiver's :class:`Reception` can no longer change: its
messages are ``()`` (or its own broadcast) and both loss flags are
already set, and another sender could only set them again.  Each
receiver's entry is therefore written at most three times a round,
however many senders there are.  The walk counts the final residents of
every grid cell and a sender skips a cell in which that count has
reached the cell's population — exact, because every node the sender
would test there is one it could not affect — and the walk stops once
every positioned node is final.  A saturated round (CHAP's veto rounds
before ``rcf``: dozens of concurrent senders in one cluster) thus costs
O(receivers + senders x overlapped cells), not O(senders x receivers).

Before ``rcf`` the same record yields the tentative-delivery map the
adversary is shown (at most one message per receiver: its own, or the
sole ``R2`` sender's when that one is within ``R1``), and a drop can only
matter by dooming that one message.  That map gives every receiver its
own tuple; the adversary may keep it.

The reach memo (a Verlet list with skin ``s`` = :data:`_SKIN`).  The
index holds snapshots: a node is re-snapshotted when it is new, evicted,
or more than ``s/2`` from its snapshot.  Each sender remembers its
candidates, the nodes within ``R2 + s`` of its snapshot (by cell): while
both stay within ``s/2`` of their snapshots no other node can come
within ``R2``.  A re-snapshot drops the memos of the node and of the
senders within ``R2 + s`` of its old or new snapshot.  A sender's walk
(:meth:`Channel._reach_of`) applies today's exact predicate to its
candidates' live coordinates, again only once a position changed.  So
a leader broadcasting to a static cluster measures its distances once,
and a moving world re-tests a few candidates per sender, not the grid.
A silent round does not sync the index; the next audible round does.

Coverage classes.  A silent round, and a single-sender round past
``rcf``, give whole classes of receivers one :class:`Reception`:
silence, the sender's clean one (its node list inside ``R1``, kept with
its walk), or lost-within-``R2`` (its list beyond).  On those rounds
:meth:`Channel.deliver_batch` returns the ``(nodes, reception)`` pairs
alone (the first over every receiver, later ones overriding it), which
the round engine reads per class; :func:`receptions_of` expands them
to the per-node map where one is read (:meth:`Channel.deliver`).  One
class makes a *uniform* round: all heard all, with one flag.

The aliasing rule.  Within one round, receivers whose delivered messages
come from the same sender hold the *same* tuple object, on both paths
(a transmitter's own reception included): the reference path keeps the
first tuple built per sender key, the indexed path hands out one clean
:class:`Reception` per sender.  Trace pickles record that sharing, so
it is part of the byte-identity contract below.

The two paths are guaranteed to produce *identical* reception maps — the
randomized differential suite (``tests/net/test_differential.py``)
asserts equality over geometries, radii, adversaries, and mobility, and
byte-identical trace pickles end to end
(``tests/net/test_channel_sharing.py`` pins the aliasing rule and the
memo's invalidation).  The ``channel`` axis of
:class:`~repro.switches.Switches` (``spec.switches``) re-runs anything
on the reference path when debugging.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from ..errors import ConfigurationError
from ..geometry import Point
from ..switches import Switches
from ..types import NodeId, Round
from .adversary import Adversary, NoAdversary
from .index import SpatialGridIndex
from .messages import Message

@dataclass(frozen=True, slots=True)
class Reception:
    """What one node experienced on the channel in one round."""

    #: Messages actually delivered, ordered by sender id for determinism.
    messages: tuple[Message, ...]
    #: True when a message broadcast within R1 of this node was lost.
    lost_within_r1: bool
    #: True when a message broadcast within R2 of this node was lost.
    lost_within_r2: bool


#: Shared silent-round reception: nothing audible, nothing lost.  Frozen
#: and compared by value, so sharing one instance is invisible to callers
#: while sparing the fast path an allocation per idle receiver per round.
_SILENCE = Reception(messages=(), lost_within_r1=False, lost_within_r2=False)

#: A round's coverage classes: ``(nodes, reception)`` pairs, the first
#: over every receiver, later ones overriding it (module docstring).
Coverage = tuple[tuple[object, Reception], ...]


def receptions_of(coverage: Coverage) -> dict[NodeId, Reception]:
    """The per-node reception map of a round's coverage classes."""
    nodes, reception = coverage[0]
    receptions = dict.fromkeys(nodes, reception)
    for nodes, reception in coverage[1:]:
        receptions.update(dict.fromkeys(nodes, reception))
    return receptions

#: Shared receptions for "nothing delivered, something within R2 lost":
#: no audible sender inside R1 / at least one inside R1.
_LOST_R2_ONLY = Reception(messages=(), lost_within_r1=False, lost_within_r2=True)
_LOST_BOTH = Reception(messages=(), lost_within_r1=True, lost_within_r2=True)

#: The two saturated states of the indexed path's per-receiver record
#: ``(sole R2 sender's message, some R2 sender is inside R1)``: two or
#: more senders within R2, so no sole sender any more.  ``_FINAL`` is
#: absorbing.
_CONTENDED: tuple[Reception | None, bool] = (None, False)
_FINAL: tuple[Reception | None, bool] = (None, True)

#: A sender's walk: ``(cell key, population, [(node, within R1), ...])``
#: per cell holding a node within R2; then its nodes within R1 and those
#: beyond (:meth:`Channel._reach_of`).  A population can only change in
#: an index sync that also makes every walk be derived again.
_Reach = tuple[list[tuple[tuple[int, int], int, list[tuple[NodeId, bool]]]],
               list[NodeId], list[NodeId]]

#: The reach memo's skin ``s``, in units of ``R2`` (module docstring).
_SKIN = 1.0
#: Relative float margin of the candidate disk; its grid query is wider.
_MARGIN = 1e-9


@dataclass(frozen=True)
class RadioSpec:
    """Radii and stabilisation round of the physical channel."""

    r1: float
    r2: float
    #: First round from which only contention causes loss (the paper's rcf).
    rcf: Round = 0

    def __post_init__(self) -> None:
        if self.r1 <= 0:
            raise ConfigurationError(f"R1 must be positive, got {self.r1}")
        if self.r2 < self.r1:
            raise ConfigurationError(
                f"R2 must be at least R1 (quasi-unit disk), got R1={self.r1}, R2={self.r2}"
            )
        if self.rcf < 0:
            raise ConfigurationError("rcf must be non-negative")


class Channel:
    """Computes per-receiver deliveries for one synchronous round."""

    def __init__(self, spec: RadioSpec, adversary: Adversary | None = None,
                 *, switches: Switches = Switches()) -> None:
        self.spec = spec
        self.adversary = adversary if adversary is not None else NoAdversary()
        self._reference = switches.channel
        self._index = SpatialGridIndex(cell_size=spec.r2)
        self._index_synced = False
        self._skin = _SKIN * spec.r2
        self._cand_sq = (spec.r2 + self._skin) ** 2 * (1.0 + _MARGIN)
        self._cand_radius = (spec.r2 + self._skin) * (1.0 + 1e3 * _MARGIN)
        #: Bumped by each index sync that saw a move (walks re-derive).
        self._stamp = 0
        #: Per-round scratch of the indexed path: the saturating record
        #: of every receiver some sender reached (module docstring).  It
        #: never escapes ``deliver``, so one dict is cleared and refilled
        #: every round instead of reallocated.
        self._heard: dict[NodeId, tuple[Reception | None, bool]] = {}
        #: Each sender's ``[candidates, stamp, walk]`` (:meth:`_reach_of`).
        self._reach: dict[NodeId, list] = {}

    def deliver(self, r: Round,
                positions: Mapping[NodeId, Point],
                broadcasts: Mapping[NodeId, Message]) -> dict[NodeId, Reception]:
        """Resolve one round of the channel.

        ``positions`` covers every *alive* node (listeners and
        broadcasters); ``broadcasts`` maps broadcasting node ids to their
        messages.  Returns a :class:`Reception` for every node in
        ``positions``.
        """
        senders = sorted(broadcasts)
        for s in senders:
            if s not in positions:
                raise ConfigurationError(f"broadcaster {s} has no position")
        out = self.deliver_batch(r, positions, broadcasts, senders)
        return receptions_of(out) if out.__class__ is tuple else out

    def deliver_batch(self, r: Round,
                      positions: Mapping[NodeId, Point],
                      broadcasts: Mapping[NodeId, Message],
                      senders: list[NodeId],
                      *, positions_unchanged: bool = False,
                      ) -> dict[NodeId, Reception] | Coverage:
        """Batched-engine entrypoint: :meth:`deliver` minus re-derivation,
        and a round resolved per coverage class is returned as its
        classes (module docstring; :func:`receptions_of` expands them).

        ``senders`` is the already-ascending broadcaster list the round
        engine produced while collecting payloads (its send sweep walks
        node ids in sorted order), so the per-round ``sorted`` and the
        per-sender position check of :meth:`deliver` are skipped — the
        simulator guarantees every sender is positioned.  Semantics are
        otherwise identical, including the reference-path switch.

        ``positions_unchanged`` is a caller promise that ``positions`` is
        element-for-element identical to the previous call on this
        channel, letting the indexed path skip re-synchronising its
        spatial index (the batched engine asserts this from its caches).
        """
        if self._reference:
            return self._deliver_reference(r, positions, broadcasts, senders)
        return self._deliver_indexed(r, positions, broadcasts, senders,
                                     positions_unchanged)

    # ------------------------------------------------------------------
    # Reference path (executable specification)
    # ------------------------------------------------------------------

    def _deliver_reference(self, r: Round,
                           positions: Mapping[NodeId, Point],
                           broadcasts: Mapping[NodeId, Message],
                           senders: list[NodeId] | None = None) -> dict[NodeId, Reception]:
        """The all-pairs scan the paper's reception rule transcribes to."""
        if senders is None:
            senders = sorted(broadcasts)

        # Physical-layer tentative deliveries (contention rule).  One R2
        # scan per receiver; R1 membership filters it (R1 <= R2 is a
        # RadioSpec invariant, and the within-predicate is monotone in
        # the radius, so the filter is exact).
        tentative: dict[NodeId, tuple[Message, ...]] = {}
        in_r1: dict[NodeId, list[NodeId]] = {}
        in_r2: dict[NodeId, list[NodeId]] = {}
        for receiver, where in positions.items():
            r2_senders = [
                s for s in senders
                if s != receiver and positions[s].within(where, self.spec.r2)
            ]
            r1_senders = [
                s for s in r2_senders if positions[s].within(where, self.spec.r1)
            ]
            in_r1[receiver] = r1_senders
            in_r2[receiver] = r2_senders
            if receiver in broadcasts:
                # Transmitting: hears only itself.
                tentative[receiver] = (broadcasts[receiver],)
            elif len(r2_senders) <= 1:
                tentative[receiver] = tuple(broadcasts[s] for s in r1_senders)
            else:
                # Contention within R2: everything is destroyed here.
                tentative[receiver] = ()

        # Adversarial drops are only permitted before channel stabilisation.
        dropped: dict[NodeId, frozenset[NodeId]] = {}
        if r < self.spec.rcf:
            dropped = self.adversary.drops(r, tentative)

        # Receivers that got the same senders' messages share one tuple
        # (the first built): one delivered tuple per sender per round.
        canon: dict[tuple[NodeId, ...], tuple[Message, ...]] = {}
        receptions: dict[NodeId, Reception] = {}
        for receiver in positions:
            doomed = dropped.get(receiver, frozenset())
            delivered = tuple(
                m for m in tentative[receiver] if m.sender not in doomed
            )
            got = {m.sender for m in delivered}
            delivered = canon.setdefault(tuple(m.sender for m in delivered),
                                         delivered)
            missing_r1 = [s for s in in_r1[receiver] if s not in got]
            missing_r2 = [s for s in in_r2[receiver] if s not in got]
            receptions[receiver] = Reception(
                messages=delivered,
                lost_within_r1=bool(missing_r1),
                lost_within_r2=bool(missing_r2),
            )
        return receptions

    # ------------------------------------------------------------------
    # Indexed fast path
    # ------------------------------------------------------------------

    def _reach_of(self, s: NodeId, positions: Mapping[NodeId, Point]) -> _Reach:
        """``s``'s walk: ``(cell key, population, [(node, within R1)])``
        for every cell holding a node within ``R2`` of ``s`` (``s`` itself
        included), nodes in the order the cell stores them; then those
        nodes within ``R1`` and those beyond, as two lists.

        Derived from ``s``'s candidates, again only after a move.
        """
        memo = self._reach.get(s)
        if memo is None:
            memo = self._reach[s] = [self._candidates_of(s), -1, None]
        if memo[1] != self._stamp:
            memo[1] = self._stamp
            here = positions[s]
            sx, sy = here.x, here.y
            r1_sq = self.spec.r1 * self.spec.r1
            r2_sq = self.spec.r2 * self.spec.r2
            walk = []
            near, far = [], []
            for key, cell, nodes in memo[0]:
                reached = []
                for node in nodes:
                    there = positions[node]
                    dx = there.x - sx
                    dy = there.y - sy
                    dd = dx * dx + dy * dy
                    if dd <= r2_sq:
                        inside = dd <= r1_sq
                        reached.append((node, inside))
                        (near if inside else far).append(node)
                if reached:
                    walk.append((key, len(cell), reached))
            memo[2] = (walk, near, far)
        return memo[2]

    def _candidates_of(self, s: NodeId) -> list:
        """``s``'s candidates: the nodes near its snapshot, by cell."""
        return list(self._near_snapshot(*self._index.coords_of(s)))

    def _near_snapshot(self, x: float, y: float):
        """``(cell key, cell, [node, ...])`` per cell holding a node
        whose snapshot lies within ``R2 + s`` of ``(x, y)``."""
        cand_sq = self._cand_sq
        for key, cell in self._index.buckets_overlapping(x, y,
                                                         self._cand_radius):
            nodes = [node for node, nx, ny in cell.values()
                     if (nx - x) * (nx - x) + (ny - y) * (ny - y) <= cand_sq]
            if nodes:
                yield key, cell, nodes

    def _forget_near(self, resnapped: list) -> None:
        """Drop the memos re-snapshots can change: each node's own and
        those near its old or new snapshot (the candidate predicate)."""
        reach = self._reach
        if 2 * len(resnapped) >= len(reach):
            reach.clear()  # cheaper than looking around each of them
            return
        for node, x, y in resnapped:
            reach.pop(node, None)
            spots = [] if x is None else [(x, y)]
            if node in self._index:
                spots.append(self._index.coords_of(node))
            for spot in spots:
                for _, _, nodes in self._near_snapshot(*spot):
                    for other in nodes:
                        reach.pop(other, None)

    def _deliver_indexed(self, r: Round,
                         positions: Mapping[NodeId, Point],
                         broadcasts: Mapping[NodeId, Message],
                         senders: list[NodeId],
                         positions_unchanged: bool = False,
                         ) -> dict[NodeId, Reception] | Coverage:
        """Sender-centric delivery via the spatial grid.

        A silent round and a single-sender round past ``rcf`` are
        answered on the spot, by their coverage classes.  Otherwise one
        walk — each sender visits the cells its ``R2`` disk overlaps and
        advances the saturating record (module docstring) of every node
        it reaches, skipping cells whose residents are all final — then
        one resolution: the record decides each reception; before
        ``rcf`` the adversary sees the tentative deliveries first and
        its drops are applied on top.
        """
        spec = self.spec
        if not senders:
            # Silent round: nobody to resolve, so the (possibly costly)
            # index sync is deferred — but an unsynced index must not
            # masquerade as current for the next round's skip hint.
            if not (positions_unchanged and self._index_synced):
                self._index_synced = False
            if r < spec.rcf:
                # The adversary is consulted exactly as on the general
                # path (stateful RNG streams must advance identically);
                # with nothing tentatively delivered it can doom nobody.
                self.adversary.drops(r, dict.fromkeys(positions, ()))
            return ((positions, _SILENCE),)
        if not (positions_unchanged and self._index_synced):
            resnapped: list = []
            if self._index.update(positions, skin=self._skin,
                                  resnapped=resnapped):
                self._stamp += 1
                if resnapped and self._reach:
                    self._forget_near(resnapped)
            self._index_synced = True

        Rec = Reception
        if len(senders) == 1 and r >= spec.rcf:
            # Single audible sender past stabilisation — the dominant
            # round shape of every contention-managed cluster protocol.
            # No contention can exist, so the sender's remembered
            # coverage classes decide every reception and the record is
            # never needed (measured: walking it costs svc-tcp 7 % of
            # its throughput; CHANGES.md, PR 21).
            s = senders[0]
            _, near, far = self._reach_of(s, positions)
            clean = Rec((broadcasts[s],), False, False)
            if len(near) == len(positions):  # the index holds just them
                return ((positions, clean),)
            return ((positions, _SILENCE), (near, clean),
                    (far, _LOST_R2_ONLY))
        heard = self._heard
        heard.clear()
        heard_get = heard.get
        final_in: dict[tuple[int, int], int] = {}
        final_get = final_in.get
        reach_of = self._reach_of
        clean_of = {s: Rec((broadcasts[s],), False, False) for s in senders}
        unsettled = len(positions)
        for s in senders:
            if not unsettled:
                break
            clean = clean_of[s]
            for key, population, reached in reach_of(s, positions)[0]:
                if final_get(key) == population:
                    continue
                for node, near in reached:
                    if node == s:
                        continue
                    state = heard_get(node)
                    if state is None:
                        heard[node] = (clean, near)
                    elif state is not _FINAL:
                        if state[1] or near:
                            heard[node] = _FINAL
                            final_in[key] = final_get(key, 0) + 1
                            unsettled -= 1
                        elif state is not _CONTENDED:
                            heard[node] = _CONTENDED

        dropped: dict[NodeId, frozenset[NodeId]] = {}
        if r < spec.rcf:
            # The adversary is consulted exactly once per pre-rcf round
            # (stateful RNG streams must advance as on the reference
            # path), with the map that path would build.
            tentative: dict[NodeId, tuple[Message, ...]] = dict.fromkeys(positions, ())
            for receiver, (sole, near) in heard.items():
                if near and sole is not None:
                    tentative[receiver] = (sole.messages[0],)
            for s in senders:
                tentative[s] = (broadcasts[s],)
            dropped = self.adversary.drops(r, tentative)

        # Receivers out of range of every sender share one silent
        # Reception, contended ones one per flag pair, a sender's sole
        # receivers its clean one (all value-equal to what the reference
        # path builds, and its tuples shared the same way).
        receptions: dict[NodeId, Reception] = dict.fromkeys(positions, _SILENCE)
        for receiver, (sole, near) in heard.items():
            if near and sole is not None:
                receptions[receiver] = sole
            else:
                receptions[receiver] = _LOST_BOTH if near else _LOST_R2_ONLY
        for s in senders:
            # Transmitting: hears only itself (whatever the loop above
            # made of its record); concurrent in-range transmissions
            # count as losses at it.
            state = heard_get(s)
            clean = clean_of[s]
            receptions[s] = (clean if state is None
                             else Rec(clean.messages, state[1], True))
        for receiver, doomed in dropped.items():
            # A receiver holds at most one message: its own broadcast, or
            # the sole R2 sender's.  Losing a neighbour's is an R1 loss.
            was = receptions.get(receiver)
            if was is not None and was.messages and was.messages[0].sender in doomed:
                foreign = receiver not in broadcasts
                receptions[receiver] = Rec((), was.lost_within_r1 or foreign,
                                           was.lost_within_r2 or foreign)
        return receptions
