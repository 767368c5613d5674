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
  into per-sender cell lookups, and the per-receiver ground-truth
  bookkeeping (the ``lost_within_*`` flags the detector consumes)
  collapses to constant-time set-size arithmetic whenever no adversarial
  drop is in play.

The two paths are guaranteed to produce *identical* reception maps — the
randomized differential suite (``tests/net/test_differential.py``)
asserts equality over geometries, radii, adversaries, and mobility, and
byte-identical trace pickles end to end.  The ``channel`` axis of
:class:`~repro.switches.Switches` (``REPRO_REFERENCE_CHANNEL=1`` in the
environment) re-runs anything on the reference path when debugging.
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

#: Shared reception for "one audible sender, inside R2 but outside R1":
#: nothing delivered, nothing R1-lost, the R2 broadcast went undelivered.
_LOST_R2_ONLY = Reception(messages=(), lost_within_r1=False, lost_within_r2=True)


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
                 *, switches: Switches | None = None) -> None:
        self.spec = spec
        self.adversary = adversary if adversary is not None else NoAdversary()
        switches = Switches.resolve(switches)
        self._reference = switches.channel
        self._index = SpatialGridIndex(cell_size=spec.r2)
        self._index_synced = False
        #: Preallocated per-round scratch for the indexed path.  The
        #: ``in_r1``/``in_r2`` maps never escape ``deliver`` (receptions
        #: carry only booleans derived from them), so one pair of dicts
        #: is cleared and refilled every round instead of reallocated.
        self._in_r1_buf: dict[NodeId, list[NodeId]] = {}
        self._in_r2_buf: dict[NodeId, list[NodeId]] = {}

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
        return self.deliver_batch(r, positions, broadcasts, senders)

    def deliver_batch(self, r: Round,
                      positions: Mapping[NodeId, Point],
                      broadcasts: Mapping[NodeId, Message],
                      senders: list[NodeId],
                      *, positions_unchanged: bool = False) -> dict[NodeId, Reception]:
        """Batched-engine entrypoint: :meth:`deliver` minus re-derivation.

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

        receptions: dict[NodeId, Reception] = {}
        for receiver in positions:
            doomed = dropped.get(receiver, frozenset())
            delivered = tuple(
                m for m in tentative[receiver] if m.sender not in doomed
            )
            got = {m.sender for m in delivered}
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

    def _deliver_indexed(self, r: Round,
                         positions: Mapping[NodeId, Point],
                         broadcasts: Mapping[NodeId, Message],
                         senders: list[NodeId],
                         positions_unchanged: bool = False) -> dict[NodeId, Reception]:
        """Sender-centric delivery via the spatial grid.

        Instead of scanning all senders per receiver, each sender pushes
        itself onto the ``in_r1``/``in_r2`` lists of the nodes its cell
        neighborhood can reach.  Iterating senders in sorted order keeps
        every per-receiver list sorted by sender id, which is exactly the
        order the reference path produces.
        """
        spec = self.spec
        index = self._index
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
            return dict.fromkeys(positions, _SILENCE)
        if not (positions_unchanged and self._index_synced):
            index.update(positions)
            self._index_synced = True

        r1_sq = spec.r1 * spec.r1
        r2_sq = spec.r2 * spec.r2
        r2 = spec.r2
        if len(senders) == 1 and r >= spec.rcf:
            # Single audible sender past stabilisation — the dominant
            # round shape of every contention-managed cluster protocol.
            # One grid walk resolves everything: no contention can
            # exist, so the in_r1/in_r2 bookkeeping maps are never
            # needed (each in-R1 receiver still gets its own fresh
            # message tuple, matching the general path's object graph).
            s = senders[0]
            message = broadcasts[s]
            sx, sy = index.coords_of(s)
            receptions = dict.fromkeys(positions, _SILENCE)
            Rec = Reception
            for cell in index.buckets_overlapping(sx, sy, r2):
                for node, nx, ny in cell.values():
                    if node == s:
                        continue
                    dx = nx - sx
                    dy = ny - sy
                    dd = dx * dx + dy * dy
                    if dd <= r2_sq:
                        receptions[node] = (Rec((message,), False, False)
                                            if dd <= r1_sq else _LOST_R2_ONLY)
            receptions[s] = Rec((message,), False, False)
            return receptions
        in_r1 = self._in_r1_buf
        in_r2 = self._in_r2_buf
        in_r1.clear()
        in_r2.clear()
        r1_get = in_r1.get
        r2_get = in_r2.get
        coords_of = index.coords_of
        buckets_overlapping = index.buckets_overlapping
        for s in senders:
            sx, sy = coords_of(s)
            for cell in buckets_overlapping(sx, sy, r2):
                for node, nx, ny in cell.values():
                    if node == s:
                        continue
                    dx = nx - sx
                    dy = ny - sy
                    dd = dx * dx + dy * dy
                    if dd <= r2_sq:
                        bucket = r2_get(node)
                        if bucket is None:
                            in_r2[node] = [s]
                        else:
                            bucket.append(s)
                        if dd <= r1_sq:
                            bucket = r1_get(node)
                            if bucket is None:
                                in_r1[node] = [s]
                            else:
                                bucket.append(s)

        if r < spec.rcf:
            return self._resolve_with_drops(
                r, positions, broadcasts, in_r1, in_r2)

        # Post-stabilisation fast route: no adversary consultation, so no
        # tentative-delivery map is needed at all.  Receivers out of range
        # of every sender share one silent Reception (value-equal to what
        # the reference path builds); only nodes actually near a sender do
        # per-receiver work, and the detector's ground-truth flags reduce
        # to list-length arithmetic instead of missing-sender set scans.
        receptions: dict[NodeId, Reception] = dict.fromkeys(positions, _SILENCE)
        Rec = Reception
        for receiver, r2_senders in in_r2.items():
            if receiver in broadcasts:
                continue  # handled below
            if len(r2_senders) <= 1:
                r1_senders = r1_get(receiver)
                if r1_senders is None:
                    # One audible sender, out of R1: its message is lost.
                    receptions[receiver] = _LOST_R2_ONLY
                else:
                    receptions[receiver] = Rec(
                        (broadcasts[r1_senders[0]],), False, False)
            else:
                # Contention: every in-range broadcast died here.
                receptions[receiver] = Rec(
                    (), r1_get(receiver) is not None, True)
        for s in senders:
            # Transmitting: hears only itself; concurrent in-range
            # transmissions count as losses at it.
            receptions[s] = Rec(
                (broadcasts[s],), r1_get(s) is not None, r2_get(s) is not None)
        return receptions

    def _resolve_with_drops(self, r: Round,
                            positions: Mapping[NodeId, Point],
                            broadcasts: Mapping[NodeId, Message],
                            in_r1: dict[NodeId, list[NodeId]],
                            in_r2: dict[NodeId, list[NodeId]]) -> dict[NodeId, Reception]:
        """Pre-``rcf`` resolution: materialise tentative deliveries for
        the adversary, then apply its drops (general bookkeeping)."""
        empty: tuple[NodeId, ...] = ()
        r1_get = in_r1.get
        r2_get = in_r2.get
        tentative: dict[NodeId, tuple[Message, ...]] = {}
        for receiver in positions:
            if receiver in broadcasts:
                tentative[receiver] = (broadcasts[receiver],)
            else:
                r2_senders = r2_get(receiver, empty)
                if len(r2_senders) <= 1:
                    tentative[receiver] = tuple(
                        broadcasts[s] for s in r1_get(receiver, empty)
                    )
                else:
                    tentative[receiver] = ()

        dropped = self.adversary.drops(r, tentative)

        receptions: dict[NodeId, Reception] = {}
        dropped_get = dropped.get
        for receiver in positions:
            doomed = dropped_get(receiver)
            r1_senders = r1_get(receiver, empty)
            r2_senders = r2_get(receiver, empty)
            if doomed:
                delivered = tuple(
                    m for m in tentative[receiver] if m.sender not in doomed
                )
                got = {m.sender for m in delivered}
                receptions[receiver] = Reception(
                    messages=delivered,
                    lost_within_r1=any(s not in got for s in r1_senders),
                    lost_within_r2=any(s not in got for s in r2_senders),
                )
            elif receiver in broadcasts:
                receptions[receiver] = Reception(
                    messages=tentative[receiver],
                    lost_within_r1=bool(r1_senders),
                    lost_within_r2=bool(r2_senders),
                )
            elif len(r2_senders) <= 1:
                if not r2_senders:
                    receptions[receiver] = _SILENCE
                else:
                    receptions[receiver] = Reception(
                        messages=tentative[receiver],
                        lost_within_r1=False,
                        lost_within_r2=len(r2_senders) > len(r1_senders),
                    )
            else:
                receptions[receiver] = Reception(
                    messages=(),
                    lost_within_r1=bool(r1_senders),
                    lost_within_r2=True,
                )
        return receptions
