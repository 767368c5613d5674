"""Flat-array protocol cores for the CHA family, over a cohort store.

The same observable protocol as the dict-based
:class:`~repro.core.cha.ChaCore` (the executable specification behind
the ``core`` axis of :class:`~repro.switches.Switches`; the differential
suites pin the two byte-identical), in flat storage: colours in a
``list[int]`` indexed by instance (``-1`` = absent), adopted ballots as
parallel ``(value, prev_instance)`` rows (the ``Ballot`` object
materialised only at wire/snapshot boundaries, or the wire object kept
when a trace may hold it), the fold cache as a parallel list, and the
output log as parallel instance / record lists: a green instance's
record is the interned :class:`~repro.core.history.HistoryChain` link
(the checkpoint core's, the checkpoint state), ⊥ a sentinel.  Wire
payloads can be pooled across rounds (``pool_payloads=True``), which is
only safe when nothing retains them: the runner enables it exactly for
``keep_trace=False`` cluster runs.

**The cohort store.**  After stabilisation every node of a cluster makes
the same transition each round, so that storage lives in a
:class:`_Cohort` shared by the member cores whose state equals it; a
member keeps its proposer, ``proposals_made``, pooled payloads, ``k`` /
``prev_instance`` and step count ``_t``.  The first member to take a
step applies it once, keeping its outcome and the slots it overwrote as
a one-step undo record; a member with the same outcome only advances
``_t``.  A member whose outcome differs, read while lagging, written at
all, or still behind when the next step begins (a crash) forks into a
private copy, the step undone.  The runner forms one cohort per cluster
(:func:`form_cohort`); ``docs/ARCHITECTURE.md`` ("The protocol core")
has the whole contract.

``status``, ``ballots`` and ``outputs`` are live, writable views (tests
and glass-box checkers mutate protocol state through them; negative
instances are refused with ``KeyError``).  ``outputs`` builds a fresh
``(instance, output)`` pair per read and pickles as a plain ``list``.
The checkpoint core's GC is incremental: every slot below its GC floor
is empty, a green instance sweeps ``[floor, green)`` and raises the
floor, and any other writer lowers it through ``_ensure``.
"""

from __future__ import annotations

from collections.abc import MutableMapping, MutableSequence
from typing import Any, Callable, Iterable, Iterator, Mapping

from ..switches import Switches
from ..types import BOTTOM, Color, Instance, NO_INSTANCE, Sentinel, Value
from .ballot import Ballot, BallotPayload, VetoPayload
from .cha import ChaCore, _InstanceMap, calculate_history_reference
from .checkpoint import CheckpointChaCore, CheckpointOutput, Reducer
from .history import History, HistoryChain, ROOT_CHAIN

#: Absent-colour sentinel in the status array (colours are 0..3).
_NO_STATUS = -1
_RED = int(Color.RED)
_ORANGE = int(Color.ORANGE)
_YELLOW = int(Color.YELLOW)
_GREEN = int(Color.GREEN)

#: Small-int -> Color, indexed by colour value.
_COLORS = (Color.RED, Color.ORANGE, Color.YELLOW, Color.GREEN)

#: Absent-ballot sentinel in the ballot-value array (``None`` is a legal
#: value in V's Python realisation, so absence needs its own object).
#: Pickle-stable: fresh cores carry it in their arrays, and a core that
#: is pickled or deep-copied must keep satisfying ``is _ABSENT`` checks.
_ABSENT = Sentinel(__name__, "_ABSENT")

#: Step outcomes that are not an adopted wire ballot.  Every step kind
#: has its own, so members driven through different steps never match.
(_BEGIN, _RED_BALLOT, _DEMOTE, _END_QUIET, _END_TROUBLE,
 _END_SINGLE) = (object() for _ in range(6))


class _Cohort:
    """One copy of the slotted cores' protocol storage.

    ``T`` counts the steps applied.  While ``shared``, ``members`` lists
    the member cores, ``done`` how many of them have taken step ``T``
    (the rest are one step behind), and ``last`` is the undo record of
    the last step applied.
    """

    __slots__ = ("status", "vals", "prevs", "objs", "cache", "out_ks",
                 "out_recs", "status_count", "ballot_count", "ck_inst",
                 "ck_state", "gc_floor", "shared", "members", "T", "done",
                 "last")

    def __init__(self) -> None:
        self.clear(1)
        self.out_ks: list[Instance] = []
        self.out_recs: list[Any] = []
        self.ck_inst: Instance = NO_INSTANCE
        self.ck_state: Any = None
        self.shared = False
        self.members: list[SlottedChaCore] | None = None
        self.T = self.done = 0
        self.last: _Step | None = None

    def clear(self, length: int) -> None:
        # Index 0 is the NO_INSTANCE slot: normally empty, but reachable
        # through the same quirks as the reference dicts.
        self.status: list[int] = [_NO_STATUS] * length
        self.vals: list[Any] = [_ABSENT] * length
        self.prevs: list[Instance] = [NO_INSTANCE] * length
        self.objs: list[Ballot | None] = [None] * length
        self.cache: list[HistoryChain | None] = [None] * length
        self.status_count = self.ballot_count = 0
        self.gc_floor: Instance = 0

    def grow(self, k: Instance) -> None:
        """Grow all parallel arrays to cover instance ``k``.

        Over-allocates (doubling) so the once-per-instance hot paths,
        which guard with ``k >= len(arr)``, amortise growth to O(1):
        empty slots hold the same sentinels a fresh array would, so
        capacity beyond ``k`` is observationally inert.
        """
        arr = self.status
        need = k + 1 - len(arr)
        if need > 0:
            grow = max(need, len(arr), 8)
            arr.extend([_NO_STATUS] * grow)
            self.vals.extend([_ABSENT] * grow)
            self.prevs.extend([NO_INSTANCE] * grow)
            self.objs.extend([None] * grow)
            self.cache.extend([None] * grow)

    def copy(self, at: int) -> "_Cohort":
        """A private copy of this storage as of step ``at`` — ``T``, or
        ``T - 1`` with the last step undone.  The fold cache starts
        empty: cached links may fold slots the undo restored, and
        re-folding yields the same interned links."""
        new = _Cohort()
        new.status, new.vals = self.status[:], self.vals[:]
        new.prevs, new.objs = self.prevs[:], self.objs[:]
        new.cache = [None] * len(new.status)
        new.out_ks, new.out_recs = self.out_ks[:], self.out_recs[:]
        new.status_count, new.ballot_count = self.status_count, self.ballot_count
        new.ck_inst, new.ck_state, new.gc_floor = (
            self.ck_inst, self.ck_state, self.gc_floor)
        if at != self.T:
            e = self.last
            lo = e.lo
            hi = lo + len(e.st)
            new.status[lo:hi], new.vals[lo:hi] = e.st, e.va
            new.prevs[lo:hi], new.objs[lo:hi] = e.pr, e.ob
            new.status_count, new.ballot_count = e.sc, e.bc
            del new.out_ks[e.nout:], new.out_recs[e.nout:]
            new.ck_inst, new.ck_state, new.gc_floor = e.ck
        new.T = at
        return new


class _Step:
    """The undo record of one applied step: its outcome and the storage
    it overwrote (slots ``lo..hi``, the counts, the log length and the
    checkpoint fields), taken just before the step mutates; whether slot
    ``k`` held a colour then (``had``); and, for a ballot step, the
    decoded reception and collision flag it came from (the same list
    with the same flag yields the same outcome)."""

    __slots__ = ("outcome", "k", "val", "pv", "good", "had", "src", "flag", "lo",
                 "st", "va", "pr", "ob", "sc", "bc", "nout", "ck")

    def __init__(self, c: _Cohort, outcome: Any, k: Instance, lo: Instance,
                 hi: Instance, val: Any, pv: Any, good: bool, src: Any,
                 flag: Any) -> None:
        self.outcome, self.k, self.val, self.pv = outcome, k, val, pv
        self.good, self.had = good, c.status[k] >= 0
        self.src, self.flag = src, flag
        self.lo = lo
        hi += 1
        self.st, self.va = c.status[lo:hi], c.vals[lo:hi]
        self.pr, self.ob = c.prevs[lo:hi], c.objs[lo:hi]
        self.sc, self.bc, self.nout = c.status_count, c.ballot_count, len(c.out_ks)
        self.ck = (c.ck_inst, c.ck_state, c.gc_floor)


def form_cohort(cores: Iterable["SlottedChaCore"]) -> None:
    """Make fresh slotted cores, built alike, share one cohort store."""
    cores = list(cores)
    if len(cores) < 2:
        return

    def build(core):  # what members must share: class and configuration
        return (type(core), core.tag, core.reference_history, core.pool_payloads,
                getattr(core, "_reducer", None), id(core._c.ck_state))

    if any(build(core) != build(cores[0]) or core.k or core._c.T
           or core._c.out_ks or core._c.status_count or core._c.ballot_count
           for core in cores):
        raise ValueError("only fresh cores built alike can share a cohort")
    shared = cores[0]._c
    for core in cores:
        core._c = shared
    shared.members = cores
    shared.done = len(cores)
    shared.shared = True


class _View(MutableMapping):
    """A live dict view over one of a slotted core's arrays."""

    __slots__ = ("_core",)

    def __init__(self, core: "SlottedChaCore") -> None:
        self._core = core

    def __repr__(self) -> str:
        return repr(dict(self))

    def __ior__(self, items: Any) -> "_View":  # as the dict cores' maps
        self.update(items)
        return self


class _StatusView(_View):
    """The colour array as ``{instance: Color}``."""

    __slots__ = ()

    def __getitem__(self, k: Instance) -> Color:
        arr = self._core._synced().status
        if isinstance(k, int) and 0 <= k < len(arr):
            code = arr[k]
            if code >= 0:
                return _COLORS[code]
        raise KeyError(k)

    def __setitem__(self, k: Instance, color: Color) -> None:
        code = int(color)
        if not 0 <= code <= 3:
            raise ValueError(f"not a CHAP colour: {color!r}")
        c = self._core._writable(k)
        if c.status[k] < 0:
            c.status_count += 1
        c.status[k] = code

    def __delitem__(self, k: Instance) -> None:
        c = self._core._owned()
        arr = c.status
        if isinstance(k, int) and 0 <= k < len(arr) and arr[k] >= 0:
            arr[k] = _NO_STATUS
            c.status_count -= 1
            return
        raise KeyError(k)

    def __iter__(self) -> Iterator[Instance]:
        arr = self._core._synced().status
        return (k for k in range(len(arr)) if arr[k] >= 0)

    def __len__(self) -> int:
        return self._core._synced().status_count


class _BallotView(_View):
    """The ballot rows as ``{instance: Ballot}``.

    Reads materialise (and cache) ``Ballot`` objects on demand; in
    unpooled runs the cached object is the exact wire ballot the core
    adopted, so snapshots preserve the reference core's object sharing.
    """

    __slots__ = ()

    def __getitem__(self, k: Instance) -> Ballot:
        c = self._core._synced()
        vals = c.vals
        if isinstance(k, int) and 0 <= k < len(vals):
            value = vals[k]
            if value is not _ABSENT:
                obj = c.objs[k]
                if obj is None:
                    obj = c.objs[k] = Ballot(value, c.prevs[k])
                return obj
        raise KeyError(k)

    def __setitem__(self, k: Instance, ballot: Ballot) -> None:
        c = self._core._writable(k)
        if c.vals[k] is _ABSENT:
            c.ballot_count += 1
        c.vals[k] = ballot.value
        c.prevs[k] = ballot.prev_instance
        c.objs[k] = ballot

    def __delitem__(self, k: Instance) -> None:
        c = self._core._owned()
        vals = c.vals
        if isinstance(k, int) and 0 <= k < len(vals) and vals[k] is not _ABSENT:
            vals[k] = _ABSENT
            c.objs[k] = None
            c.ballot_count -= 1
            return
        raise KeyError(k)

    def __iter__(self) -> Iterator[Instance]:
        vals = self._core._synced().vals
        return (k for k in range(len(vals)) if vals[k] is not _ABSENT)

    def __len__(self) -> int:
        return self._core._synced().ballot_count


class _OutputLog(MutableSequence):
    """Live, writable sequence view over a slotted core's output log.

    Reads build a fresh ``(instance, output)`` pair from the parallel
    instance / record lists (see the module docstring); writes store the
    given output verbatim.  Compares equal to a list (or another view)
    of the same pairs and pickles as a plain ``list``.
    """

    __slots__ = ("_core",)

    def __init__(self, core: "SlottedChaCore") -> None:
        self._core = core

    def __len__(self) -> int:
        return len(self._core._synced().out_ks)

    def __getitem__(self, i):
        core = self._core
        c = core._synced()
        if isinstance(i, slice):
            output = core._output_of
            return [(k, output(k, record)) for k, record
                    in zip(c.out_ks[i], c.out_recs[i])]
        k = c.out_ks[i]
        return k, core._output_of(k, c.out_recs[i])

    def __iter__(self) -> Iterator[tuple[Instance, Any]]:
        core = self._core
        c = core._synced()
        output = core._output_of
        for k, record in zip(c.out_ks, c.out_recs):
            yield k, output(k, record)

    def __setitem__(self, i, item) -> None:
        core = self._core
        c = core._owned()
        if isinstance(i, slice):
            pairs = list(item)
            c.out_ks[i] = [k for k, _ in pairs]
            c.out_recs[i] = [core._record_of(out) for _, out in pairs]
        else:
            k, out = item
            c.out_ks[i] = k
            c.out_recs[i] = core._record_of(out)

    def __delitem__(self, i) -> None:
        c = self._core._owned()
        del c.out_ks[i]
        del c.out_recs[i]

    def insert(self, i: int, item) -> None:
        core = self._core
        c = core._owned()
        k, out = item
        c.out_ks.insert(i, k)
        c.out_recs.insert(i, core._record_of(out))

    def instances(self) -> list[Instance]:
        """The logged instance numbers, in log order (no output built)."""
        return list(self._core._synced().out_ks)

    def bottoms(self) -> int:
        """How many logged outputs are ⊥ (no output built)."""
        bottom = self._core._BOTTOM_RECORD
        return sum(1 for record in self._core._synced().out_recs
                   if record is bottom)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (list, _OutputLog)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None  # mutable, like the list it stands in for

    def __reduce__(self):
        return list, (list(self),)

    def __repr__(self) -> str:
        return repr(list(self))


class _Verbatim:
    """A log record holding an output as written through the view (the
    protocol's own records are chain links, histories and checkpoint
    states, so the ones it did not derive are boxed)."""

    __slots__ = ("output",)

    def __init__(self, output: Any) -> None:
        self.output = output


class SlottedChaCore:
    """:class:`~repro.core.cha.ChaCore` semantics over a cohort store:
    the same methods and quirks (pre-instance ballot receptions still
    create an entry at instance 0; missing-ballot chains still raise)
    and byte-identical outputs, from flat arrays that the members of one
    :class:`_Cohort` share, with optional wire-payload pooling."""

    __slots__ = (
        "_propose", "tag", "reference_history", "pool_payloads",
        "k", "prev_instance", "proposals_made", "_c", "_t",
        "_status_view", "_ballot_view",
        "_pooled_ballot_payload", "_pooled_veto1", "_pooled_veto2",
    )

    def __init__(self, *, propose: Callable[[Instance], Value],
                 tag: Any = "cha",
                 switches: Switches | None = None,
                 pool_payloads: bool = False) -> None:
        self._propose = propose
        self.tag = tag
        switches = Switches.resolve(switches)
        self.reference_history = switches.history
        #: Reuse one BallotPayload/Ballot and one VetoPayload per phase
        #: across rounds.  Only safe when no trace retains wire objects.
        self.pool_payloads = pool_payloads
        self.k: Instance = NO_INSTANCE
        self.prev_instance: Instance = NO_INSTANCE
        self.proposals_made: dict[Instance, Value] = {}
        #: The cohort store, and the steps this member has taken.
        self._c = _Cohort()
        self._t = 0
        self._status_view = _StatusView(self)
        self._ballot_view = _BallotView(self)
        self._pooled_ballot_payload: BallotPayload | None = None
        self._pooled_veto1: VetoPayload | None = None
        self._pooled_veto2: VetoPayload | None = None

    # ------------------------------------------------------------------
    # The cohort: following, forking, recording
    # ------------------------------------------------------------------

    def _follow(self, outcome: Any, k: Instance, val: Any = None,
                pv: Any = None) -> "_Step | None":
        """Before a step in a shared cohort: the undo record if the step
        is applied with this outcome already (this member now follows
        it), else None — apply it to ``self._c``, the cohort (this
        member leads) or the private fork of a diverging member."""
        c = self._c
        if self._t == c.T:
            return None
        e = c.last
        if (e.outcome is outcome and e.k == k and e.val is val
                and e.pv == pv):
            self._t += 1
            c.done += 1
            return e
        self._fork()
        return None

    def _record(self, c: _Cohort, outcome: Any, k: Instance, lo: Instance,
                hi: Instance, val: Any = None, pv: Any = None,
                good: bool = False, src: Any = None,
                flag: Any = None) -> None:
        """Record the step about to be applied by the leading member of
        shared cohort ``c``: first fork whoever did not take the last
        step (its undo record is about to go), and stop recording once
        nobody else shares the store."""
        members = c.members
        if c.done < len(members):
            for m in [m for m in members if m._t != c.T]:
                m._fork()
        if len(members) == 1:
            c.shared, c.members, c.last = False, None, None
            return
        c.grow(hi)
        c.last = _Step(c, outcome, k, lo, hi, val, pv, good, src, flag)
        c.T += 1
        c.done = 1
        self._t += 1

    def _fork(self) -> _Cohort:
        """Leave the cohort for a private copy as of this member's step."""
        c = self._c
        new = c.copy(self._t)
        c.members.remove(self)
        if self._t == c.T:
            c.done -= 1
        self._c = new
        return new

    def _synced(self) -> _Cohort:
        """The storage as this member sees it (a lagging member forks)."""
        c = self._c
        return c if self._t == c.T else self._fork()

    def _owned(self) -> _Cohort:
        """The storage, private to this member, for a write."""
        c = self._c
        if c.shared:
            if len(c.members) > 1 or self._t != c.T:
                return self._fork()
            c.shared, c.members, c.last = False, None, None
        return c

    def _writable(self, k: Instance) -> _Cohort:
        if k < 0:
            raise KeyError(k)  # instances are >= 0 (NO_INSTANCE is 0)
        c = self._owned()
        self._ensure(k)
        return c

    # ------------------------------------------------------------------
    # Storage plumbing
    # ------------------------------------------------------------------

    def _ensure(self, k: Instance) -> None:
        self._c.grow(k)  # a view is about to write slot ``k``

    @property
    def status(self) -> MutableMapping:
        return self._status_view

    @status.setter
    def status(self, mapping: Mapping[Instance, Color]) -> None:
        items = _InstanceMap(mapping)
        c = self._owned()
        c.status[:] = [_NO_STATUS] * len(c.status)
        c.status_count = 0
        view = self._status_view
        for k, color in items.items():
            view[k] = color

    @property
    def ballots(self) -> MutableMapping:
        return self._ballot_view

    @ballots.setter
    def ballots(self, mapping: Mapping[Instance, Ballot]) -> None:
        items = _InstanceMap(mapping)
        c = self._owned()
        c.vals[:] = [_ABSENT] * len(c.vals)
        c.objs[:] = [None] * len(c.objs)
        c.ballot_count = 0
        view = self._ballot_view
        for k, ballot in items.items():
            view[k] = ballot

    #: The log record of a ⊥ output.
    _BOTTOM_RECORD: Any = BOTTOM
    #: Green instances fold a checkpoint and garbage-collect below it.
    _CHECKPOINTED = False

    def _output_of(self, k: Instance, record: Any) -> Any:
        """The output a log record stands for: a chain link is the
        history of instance ``k`` over it, and a reference-fold history
        is copied — a fresh output per read and per node, as the chain
        form gives."""
        kind = type(record)
        if kind is HistoryChain:
            return History._from_chain(k, record)
        if kind is History:
            return History(record.length, dict(record._materialized()))
        return record.output if kind is _Verbatim else record

    def _record_of(self, output: Any) -> Any:
        """The record a written output is kept as (verbatim)."""
        return self._BOTTOM_RECORD if output is BOTTOM else _Verbatim(output)

    @property
    def outputs(self) -> MutableSequence:
        """Chronological ``(instance, History or BOTTOM)`` pairs.

        A fresh view per read, not a stored one like ``status``: it
        pickles as a list, which a core must not do to its own field."""
        return _OutputLog(self)

    @outputs.setter
    def outputs(self, pairs: Iterable[tuple[Instance, Any]]) -> None:
        _OutputLog(self)[:] = pairs

    # ------------------------------------------------------------------
    # Ballot phase
    # ------------------------------------------------------------------

    def begin_instance(self) -> BallotPayload:
        """Start the next instance; always returns a fresh payload
        (compatibility path — the pooled hot path is
        :meth:`begin_instance_send`)."""
        self.begin_instance_send(False)
        k = self.k
        return BallotPayload(self.tag, k,
                             Ballot(self.proposals_made[k], self.prev_instance))

    def begin_instance_send(self, active: bool) -> BallotPayload | None:
        """Start the next instance — advance ``k``, record the proposal,
        paint the slot green — and produce the wire payload iff the
        contention manager advises broadcasting (lines 14-19).

        Inactive nodes advance their state without allocating anything;
        active nodes reuse the pooled payload when pooling is on.
        """
        k = self.k + 1
        self.k = k
        value = self._propose(k)
        self.proposals_made[k] = value
        c = self._c
        if c.shared:
            e = c.last if self._t != c.T else None
            if e is not None and e.outcome is _BEGIN and e.k == k:
                self._t += 1  # the lockstep case, inline
                c.done += 1
                c = None
            elif self._follow(_BEGIN, k) is not None:
                c = None
            else:
                c = self._c
                if c.shared:
                    self._record(c, _BEGIN, k, k, k)
        if c is not None:
            arr = c.status
            if k >= len(arr):
                c.grow(k)  # extends in place: ``arr`` stays valid
            if arr[k] < 0:
                c.status_count += 1
            arr[k] = _GREEN
        if not active:
            return None
        payload = self._pooled_ballot_payload
        if payload is None or not self.pool_payloads:
            payload = BallotPayload(self.tag, self.k,
                                    Ballot(value, self.prev_instance))
            if self.pool_payloads:
                self._pooled_ballot_payload = payload
            return payload
        ballot = payload.ballot
        object.__setattr__(ballot, "value", value)
        object.__setattr__(ballot, "prev_instance", self.prev_instance)
        object.__setattr__(payload, "instance", self.k)
        return payload

    def on_ballot_reception(self, ballots: Iterable[Ballot],
                            collision: bool) -> None:
        """Ballot-phase reception (lines 29-32): adopt ``min(M)``.

        Matches the reference's ``sorted(...)[0]`` including its stable
        tie-break: the *first* minimal wire ballot is the one adopted
        (and retained, when wire objects may outlive the round).
        """
        k = self.k
        c = self._c
        if c.shared and self._t != c.T:
            # The lockstep case: the leader adopted from the same
            # round's decoded list, so its outcome is ours.
            e = c.last
            if e.src is ballots and e.flag == collision and e.k == k:
                self._t += 1
                c.done += 1
                return
        best: Ballot | None = None
        if not collision:
            if type(ballots) is list and len(ballots) == 1:
                # The common case — exactly the leader's ballot — needs
                # no sort key (matching the reference: sorting one
                # element performs no comparisons).
                best = ballots[0]
            else:
                best_key = None
                for b in ballots:
                    key = b.sort_key()
                    if best_key is None or key < best_key:
                        best = b
                        best_key = key
        if c.shared:
            if best is None:
                outcome = _RED_BALLOT
                val = pv = None
            else:
                outcome, val, pv = best, best.value, best.prev_instance
            if self._follow(outcome, k, val, pv) is not None:
                return
            c = self._c
            if c.shared:
                self._record(c, outcome, k, k, k, val, pv, src=ballots,
                             flag=collision)
        if best is None:
            arr = c.status
            if k >= len(arr):
                c.grow(k)
            if arr[k] < 0:
                c.status_count += 1
            arr[k] = _RED
            return
        vals = c.vals
        if k >= len(vals):
            c.grow(k)
        if vals[k] is _ABSENT:
            c.ballot_count += 1
        vals[k] = best.value
        c.prevs[k] = best.prev_instance
        # Pooled wire ballots are mutated next round; only retain the
        # object when the run may hold it (trace/snapshot sharing).
        c.objs[k] = None if self.pool_payloads else best

    # ------------------------------------------------------------------
    # Veto phases
    # ------------------------------------------------------------------

    def has_instance(self) -> bool:
        """True once the current instance has ballot-phase state — i.e.
        veto phases may act (not before the first ``begin_instance``, nor
        after a checkpoint reset).  A member one step behind answers from
        the undo record, without forking."""
        k = self.k
        c = self._c
        if c.shared and self._t != c.T:  # lagging: as the next step
            e = c.last                   # found the slot, or fork
            if e.k == k:
                return e.had
            c = self._fork()
        arr = c.status
        return k < len(arr) and arr[k] >= 0

    def wants_veto1(self) -> bool:
        """Broadcast ⟨veto⟩ in veto-1 iff the instance is red (line 21)."""
        return self.veto1_payload() is not None

    def veto1_payload(self) -> VetoPayload | None:
        """The veto-1 wire payload, or None (pooled hot path)."""
        k = self.k
        c = self._c
        arr = (self._fork() if c.shared and self._t != c.T else c).status
        if k >= len(arr) or arr[k] != _RED:
            return None
        if not self.pool_payloads:
            return VetoPayload(self.tag, k, 1)
        payload = self._pooled_veto1
        if payload is None:
            payload = self._pooled_veto1 = VetoPayload(self.tag, k, 1)
        else:
            object.__setattr__(payload, "instance", k)
        return payload

    def on_veto1_reception(self, veto_seen: bool, collision: bool) -> None:
        """Veto-1 reception (lines 33-35): downgrade green to orange.

        Only a demotion is a cohort step: a quiet reception writes
        nothing, so a quiet member stays where it is."""
        if veto_seen or collision:
            k = self.k
            c = self._c
            if c.shared:
                if self._follow(_DEMOTE, k) is not None:
                    return
                c = self._c
            arr = c.status
            status = arr[k] if k < len(arr) else _NO_STATUS
            if status < 0:
                raise KeyError(k)
            if c.shared:
                self._record(c, _DEMOTE, k, k, k)
            if status > _ORANGE:
                arr[k] = _ORANGE

    def wants_veto2(self) -> bool:
        """Broadcast ⟨veto⟩ in veto-2 iff red or orange (line 25)."""
        return self.veto2_payload() is not None

    def veto2_payload(self) -> VetoPayload | None:
        """The veto-2 wire payload, or None (pooled hot path)."""
        k = self.k
        c = self._c
        arr = (self._fork() if c.shared and self._t != c.T else c).status
        if k >= len(arr) or not 0 <= arr[k] <= _ORANGE:
            return None
        if not self.pool_payloads:
            return VetoPayload(self.tag, k, 2)
        payload = self._pooled_veto2
        if payload is None:
            payload = self._pooled_veto2 = VetoPayload(self.tag, k, 2)
        else:
            object.__setattr__(payload, "instance", k)
        return payload

    def end_instance(self, veto_seen: bool, collision: bool) -> None:
        """Veto-2 reception and end-of-instance bookkeeping (lines
        36-45): records the instance's output and returns nothing — the
        process wrappers' entry point (:meth:`on_veto2_reception` is
        this plus a read of the log)."""
        k = self.k
        c = self._c
        if c.shared:
            outcome = _END_TROUBLE if veto_seen or collision else _END_QUIET
            e = c.last if self._t != c.T else None
            if e is None or e.outcome is not outcome or e.k != k:
                e = self._follow(outcome, k)
            else:  # the lockstep case, inline
                self._t += 1
                c.done += 1
            if e is not None:
                if e.good:
                    self.prev_instance = k
                return
            c = self._c
        arr = c.status
        status = arr[k] if k < len(arr) else _NO_STATUS
        if status < 0:
            raise KeyError(k)
        if (veto_seen or collision) and status > _YELLOW:
            status = _YELLOW
        if status >= _YELLOW:
            self.prev_instance = k
        # The record is computed before anything is written: a failed
        # fold logs (and records) nothing.  The checkpoint core's is the
        # new checkpoint state, the whole output (its suffix is empty).
        if status != _GREEN:
            record = self._BOTTOM_RECORD
        elif self._CHECKPOINTED:
            record = self._reduce_to(k, self.current_history())
        elif self.reference_history:
            record = self._green_record()
        else:
            # Inline fast path for the dominant green case: skip the
            # current_history frame and the History it would wrap.
            record = self._fold_chain(k, k)
        if c.shared:
            self._record(c, outcome, k, min(c.gc_floor, k)
                         if self._CHECKPOINTED else k, k, good=status >= _YELLOW)
        arr[k] = status
        if status == _GREEN and self._CHECKPOINTED:
            self._fold_to(k, record)
        c.out_ks.append(k)
        c.out_recs.append(record)

    def on_veto2_reception(self, veto_seen: bool,
                           collision: bool) -> tuple[Instance, Any]:
        """:meth:`end_instance`, returning the ``(instance, output)``
        pair it logged (the dict cores' contract)."""
        self.end_instance(veto_seen, collision)
        return self.outputs[-1]

    def end_instance_single_veto(self) -> None:
        """End-of-instance bookkeeping for the single-veto ablation
        (two-phase CHA): no second downgrade opportunity — green outputs
        its history, everything else outputs bottom."""
        k = self.k
        c = self._c
        if c.shared:
            e = self._follow(_END_SINGLE, k)
            if e is not None:
                if e.good:
                    self.prev_instance = k
                return
            c = self._c
        arr = c.status
        status = arr[k] if k < len(arr) else _NO_STATUS
        if status < 0:
            raise KeyError(k)
        if status == _GREEN:
            self.prev_instance = k
            record = self._green_record()
        else:
            record = BOTTOM
        if c.shared:
            self._record(c, _END_SINGLE, k, k, k, good=status == _GREEN)
        c.out_ks.append(k)
        c.out_recs.append(record)

    def finish_instance_single_veto(self) -> tuple[Instance, Any]:
        """:meth:`end_instance_single_veto`, returning the logged pair."""
        self.end_instance_single_veto()
        return self.outputs[-1]

    def _green_record(self) -> Any:
        """The log record of the current (green) instance's history:
        its shared chain link, or — under the reference fold, which
        builds no chain — the dict-form history itself."""
        history = self.current_history()
        return history if self.reference_history else history._chain

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def current_history(self) -> History:
        """The history computed from the current chain (line 41)."""
        self._synced()
        if self.reference_history:
            return calculate_history_reference(
                self.k, self.prev_instance, self._ballot_view)
        return History._from_chain(
            self.k, self._fold_chain(self.k, self.prev_instance))

    def _fold_chain(self, instance: Instance, prev: Instance, *,
                    floor: Instance = 0) -> HistoryChain:
        """Incremental ``calculate-history`` over the flat arrays.

        Same walk as :meth:`ChaCore._fold_chain` with the cache probe
        and ballot lookup turned into array indexing.
        """
        c = self._c
        cache = c.cache
        vals = c.vals
        prevs = c.prevs
        n = len(vals)
        # Fast path for the spine shapes that dominate steady state:
        # the start entry is already cached (repeat fold), or it is one
        # uncached link whose parent is cached / the root.  Falls
        # through to the general walk in every other case.
        p = prev
        if floor < p <= instance and p < n:
            node = cache[p]
            if node is not None:
                return node
            value = vals[p]
            if value is not _ABSENT:
                q = prevs[p]
                if not floor < q <= p - 1:
                    node = ROOT_CHAIN.child(p, value)
                    cache[p] = node
                    return node
                if q < n:
                    base = cache[q]
                    if base is not None:
                        node = base.child(p, value)
                        cache[p] = node
                        return node
        stack: list[tuple[Instance, Value]] = []
        base: HistoryChain | None = None
        limit = instance
        p = prev
        while floor < p <= limit:
            if p < n:
                base = cache[p]
                if base is not None:
                    break
                value = vals[p]
            else:
                value = _ABSENT
            if value is _ABSENT:
                self._missing_ballot(p)
            stack.append((p, value))
            limit = p - 1  # the reference walk only moves downward
            p = prevs[p]
        if base is None:
            base = ROOT_CHAIN
        for k, v in reversed(stack):
            base = base.child(k, v)
            cache[k] = base
        return base

    _missing_ballot = ChaCore._missing_ballot

    def color_of(self, k: Instance) -> Color:
        """Colour this node assigns instance ``k`` (green if untouched)."""
        arr = self._synced().status
        if 0 <= k < len(arr):
            code = arr[k]
            if code >= 0:
                return _COLORS[code]
        return Color.GREEN

    decided_history = ChaCore.decided_history

    def resident_entries(self) -> int:
        """Stored ballot + status entries (space metric for experiment E9)."""
        c = self._synced()
        return c.ballot_count + c.status_count

    # ------------------------------------------------------------------
    # State transfer (used by the emulation's join protocol)
    # ------------------------------------------------------------------

    def snapshot(self) -> dict:
        """A copyable snapshot of the protocol state: dicts in ascending
        instance order (the order the reference core's dicts carry in
        practice), holding the retained / cached ballot objects."""
        return {
            "k": self.k,
            "prev_instance": self.prev_instance,
            "status": dict(self._status_view),
            "ballots": dict(self._ballot_view),
        }

    def restore(self, snapshot: Mapping) -> None:
        """Adopt a snapshot produced by :meth:`snapshot`."""
        self.k = snapshot["k"]
        self.prev_instance = snapshot["prev_instance"]
        self._owned().clear(self.k + 1)
        for k, color in snapshot["status"].items():
            self._status_view[k] = color
        for k, ballot in snapshot["ballots"].items():
            self._ballot_view[k] = ballot


#: The checkpoint core's ⊥ record (``None`` is a legal checkpoint state).
_LOGGED_BOTTOM = Sentinel(__name__, "_LOGGED_BOTTOM")


def _cohort_field(name: str, doc: str) -> property:
    """A checkpoint field kept on the cohort: read as this member sees
    it, written on this member's private copy."""
    def get(self):
        c = self._c
        return getattr(c if self._t == c.T else self._fork(), name)
    return property(get, lambda self, value: setattr(self._owned(), name, value),
                    doc=doc)


class SlottedCheckpointChaCore(SlottedChaCore):
    """:class:`~repro.core.checkpoint.CheckpointChaCore` over a cohort
    store: the checkpoint is folded once per cohort, so the reducer runs
    once per cohort per green instance."""

    __slots__ = ("_reducer",)

    checkpoint_instance = _cohort_field(
        "ck_inst", "Instance up to which the checkpoint folds.")
    checkpoint_state = _cohort_field(
        "ck_state", "The application state folded up to the checkpoint.")

    def __init__(self, *, propose: Callable[[Instance], Value],
                 reducer: Reducer, initial_state: Any,
                 tag: Any = "cha",
                 switches: Switches | None = None,
                 pool_payloads: bool = False) -> None:
        super().__init__(propose=propose, tag=tag, switches=switches,
                         pool_payloads=pool_payloads)
        self._reducer = reducer
        self._c.ck_state = initial_state

    # -- the GC floor ---------------------------------------------------

    def _ensure(self, k: Instance) -> None:
        """A view write below the GC floor lowers it (the protocol steps
        write at ``k`` or above, and grow the arrays directly)."""
        c = self._c
        if k < c.gc_floor:
            c.gc_floor = k
        c.grow(k)

    # -- folding --------------------------------------------------------

    def _reduce_to(self, green: Instance, history: History) -> Any:
        """The checkpoint state folded up to the green instance ``green``."""
        c = self._c
        state = c.ck_state
        # One pass over the fold: ``history(k)`` walks from the tip, so
        # reading it per instance would be quadratic in the gap.
        at = dict(history.items())
        for k in range(c.ck_inst + 1, green + 1):
            state = self._reducer(state, k, at.get(k, BOTTOM))
        return state

    def _fold_to(self, green: Instance, state: Any) -> None:
        """Advance the checkpoint to the green instance ``green`` and
        sweep ``[floor, green)`` — the instances since the last green
        one — raising the GC floor to ``green`` (the ballot *at* the
        checkpoint survives as the chain anchor)."""
        c = self._c
        c.ck_state = state
        c.ck_inst = green
        arr = c.status
        vals = c.vals
        objs = c.objs
        floor = c.gc_floor
        swept = min(green, len(arr))
        for k in range(floor, swept):
            if arr[k] >= 0:
                arr[k] = _NO_STATUS
                c.status_count -= 1
            if vals[k] is not _ABSENT:
                vals[k] = _ABSENT
                objs[k] = None
                c.ballot_count -= 1
        if swept > floor:
            c.gc_floor = swept
        # Cached folds were anchored at the old checkpoint floor (see
        # CheckpointChaCore._fold_to); drop them all.  A fold is cached
        # only at an instance that stores a ballot, no later than the
        # ``k`` it was computed at: nothing sits outside [floor, k].
        cache = c.cache
        for k in range(floor, min(self.k + 1, len(cache))):
            cache[k] = None

    # -- the output log ---------------------------------------------------

    _BOTTOM_RECORD = _LOGGED_BOTTOM
    _CHECKPOINTED = True

    def _output_of(self, k: Instance, record: Any) -> Any:
        """A bare record is the checkpoint state of green instance
        ``k``, whose output wrapped it with the empty suffix; anything
        written through the view comes back as it went in."""
        if record is _LOGGED_BOTTOM:
            return BOTTOM
        if type(record) is _Verbatim:
            return record.output
        return CheckpointOutput(k, record, History._from_chain(k, ROOT_CHAIN))

    # -- the dict core's walk, over this core's views and fields --------

    current_history = CheckpointChaCore.current_history
    _missing_ballot = CheckpointChaCore._missing_ballot

    def current_checkpoint_output(self, history: History | None = None
                                  ) -> CheckpointOutput:
        """The (checkpoint, suffix) pair for the current chain."""
        if history is None:
            history = self.current_history()
        c = self._synced()
        return CheckpointOutput(c.ck_inst, c.ck_state, History(
            history.length, {k: v for k, v in history.items() if k > c.ck_inst}))

    # -- state transfer -------------------------------------------------

    def snapshot(self) -> dict:
        snap = super().snapshot()
        snap["checkpoint_instance"] = self.checkpoint_instance
        snap["checkpoint_state"] = self.checkpoint_state
        return snap

    def restore(self, snapshot) -> None:
        super().restore(snapshot)
        self.checkpoint_instance = snapshot["checkpoint_instance"]
        self.checkpoint_state = snapshot["checkpoint_state"]

    def reset_to(self, instance: Instance, state: Any) -> None:
        """Re-anchor a fresh core at ``instance`` (the emulation's
        reset).  Leaves the core in a pre-instance state: veto phases
        stay inert until the next ballot phase begins an instance."""
        self.k = instance
        self.prev_instance = instance
        c = self._owned()
        c.ck_inst = instance
        c.ck_state = state
        c.clear(instance + 1)
