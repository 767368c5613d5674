"""Flat-array protocol cores for the CHA family, over a cohort store.

The same observable protocol as the dict-based
:class:`~repro.core.cha.ChaCore` (the executable specification behind
the ``core`` axis of :class:`~repro.switches.Switches`; the differential
suites pin the two byte-identical), in flat storage: colours in a
``list[int]`` indexed by instance (``-1`` = absent), adopted ballots as
parallel ``(value, prev_instance)`` rows beside the adopted wire
``Ballot`` itself (kept, as the reference keeps it, so snapshots share
what the reference shares), the fold cache as a parallel list, and the
output log as parallel instance / record lists: a green instance's
record is the interned :class:`~repro.core.history.HistoryChain` link
(the checkpoint core's, the checkpoint state), ⊥ a sentinel.  Wire
objects are immutable: every payload is built fresh and never mutated,
so keeping a trace changes nothing about which code runs.

**The cohort store.**  After stabilisation every node of a cluster, and
every replica of a virtual node, makes the same transition each round,
so that storage (``k`` and ``prev_instance`` included) lives in a
:class:`_Cohort` shared by the member cores of one lockstep cohort; a
member keeps only its proposer and ``proposals_made``.
A shared store advances only through the ``step_*`` methods, which
:class:`~repro.core.cha.CHAEnsemble` and the VI
:class:`~repro.vi.replica.ReplicaCohort` call once per phase for the
whole cohort after forking out every member whose input differs.  A
step taken for one member alone (``CHAProcess.send`` /
``deliver``, ``ReplicaRuntime.send_for`` / ``deliver_for``, or
any driver) calls ``detach`` first, and a view write, ``restore`` or
``reset_to`` forks by itself: the member leaves the store for a plain
copy of it (members of one store are never at different steps, so no
undo is needed).  It rejoins (:func:`rejoin`) at an instance boundary
where its live state is the store's, keeping its own frozen prefix
below the merge floor; a step whose fold would read below the floor
forks every prefixed member first, so the merge is exact.
``docs/ARCHITECTURE.md`` ("The protocol core") has the whole contract.

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
from operator import attrgetter
from typing import Any, Callable, Iterable, Iterator, Mapping

from ..switches import Switches
from ..types import BOTTOM, Color, Instance, NO_INSTANCE, Sentinel, Value
from .ballot import Ballot, BallotPayload
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

class _Cohort:
    """One copy of the slotted cores' protocol storage, ``k`` and
    ``prev_instance`` included.  ``members`` lists the member cores
    that share it (``None`` for a private store)."""

    __slots__ = ("status", "vals", "prevs", "objs", "cache", "out_ks",
                 "out_recs", "status_count", "ballot_count", "ck_inst",
                 "ck_state", "gc_floor", "k", "prev", "members", "floor",
                 "anchor")

    def __init__(self) -> None:
        self.clear(1)
        self.out_ks: list[Instance] = []
        self.out_recs: list[Any] = []
        self.ck_inst: Instance = NO_INSTANCE
        self.ck_state: Any = None
        self.k: Instance = NO_INSTANCE
        self.prev: Instance = NO_INSTANCE
        self.members: list[SlottedChaCore] | None = None
        #: The merge floor and its anchor (:func:`rejoin`).
        self.floor = self.anchor = 0

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

    def copy(self) -> "_Cohort":
        """A private copy of this storage (members of a shared store
        are always at the same step, so a plain copy is exact)."""
        new = _Cohort()
        new.status, new.vals = self.status[:], self.vals[:]
        new.prevs, new.objs = self.prevs[:], self.objs[:]
        new.cache = self.cache[:]
        new.out_ks, new.out_recs = self.out_ks[:], self.out_recs[:]
        new.status_count, new.ballot_count = self.status_count, self.ballot_count
        new.ck_inst, new.ck_state, new.gc_floor = (
            self.ck_inst, self.ck_state, self.gc_floor)
        new.k, new.prev = self.k, self.prev
        return new


def form_cohort(cores: Iterable["SlottedChaCore"]) -> None:
    """Make fresh slotted cores, built alike, share one cohort store."""
    cores = list(cores)
    if len(cores) < 2:
        return

    def build(core):  # what members must share: class and configuration
        return (type(core), core.tag, core.reference_history,
                getattr(core, "_reducer", None), id(core._c.ck_state))

    if any(build(core) != build(cores[0]) or core._c.members is not None
           or core.k or core._c.out_ks or core._c.status_count
           or core._c.ballot_count for core in cores):
        raise ValueError("only fresh cores built alike can share a cohort")
    shared = cores[0]._c
    for core in cores:
        core._c = shared
    shared.members = cores


def shared_store(core) -> _Cohort | None:
    """The store ``core`` shares with other cores, if any."""
    c = getattr(core, "_c", None)
    return c if c is not None and len(c.members or ()) > 1 else None


def _clean(c: _Cohort) -> bool:
    """Nothing stored above ``k`` (only a view write puts it there)."""
    start = c.k + 1
    return (all(s < 0 for s in c.status[start:])
            and all(v is _ABSENT for v in c.vals[start:])
            and all(x is None for x in c.cache[start:]))


def rejoin(lead: "SlottedChaCore", cores: Iterable["SlottedChaCore"]) -> int:
    """At an instance boundary, merge into ``lead``'s store every private
    core of ``cores`` whose merge key is lead's (ints equal, as an int's
    identity is unobservable; the rest identical); returns how many."""
    store = lead._c
    key = lead._merge_key()
    if key is None or not _clean(store):
        return 0
    joining = [core for core in cores if core._c is not store
               and core._pre is None and len(core._c.members or ()) < 2
               and _clean(core._c) and _alike(core._merge_key(), key)]
    for core in joining:
        c = core._c
        core._pre = (c, store.k, len(store.out_ks), c.status_count
                     - store.status_count, c.ballot_count - store.ballot_count)
        core._c, c.members = store, None
    if joining:
        store.members = (store.members or [lead]) + joining
        store.floor, store.anchor = store.k, store.prev
    return len(joining)


def _alike(key: tuple | None, other: tuple) -> bool:
    return key is not None and all(
        x is y or type(x) is type(y) is int and x == y
        for x, y in zip(key, other))


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
        arr = self._core._at(k).status
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
        arr = self._core._array("status")
        return (k for k in range(len(arr)) if arr[k] >= 0)

    def __len__(self) -> int:
        return self._core._counts()[0]


class _BallotView(_View):
    """The ballot rows as ``{instance: Ballot}``.

    Reads return the exact wire ballot the core adopted (as the
    reference core keeps it, so snapshots preserve its object sharing),
    or materialise (and cache) one where a restore or a view write left
    only the row.
    """

    __slots__ = ()

    def __getitem__(self, k: Instance) -> Ballot:
        c = self._core._at(k)
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
        vals = self._core._array("vals")
        return (k for k in range(len(vals)) if vals[k] is not _ABSENT)

    def __len__(self) -> int:
        return self._core._counts()[1]


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
        return self._core._log_len()

    def __getitem__(self, i):
        core = self._core
        if isinstance(i, slice):
            ks, recs = core._log()
            output = core._output_of
            return [(k, output(k, record)) for k, record
                    in zip(ks[i], recs[i])]
        c, i = core._log_at(i)
        k = c.out_ks[i]
        return k, core._output_of(k, c.out_recs[i])

    def __iter__(self) -> Iterator[tuple[Instance, Any]]:
        core = self._core
        output = core._output_of
        for k, record in zip(*core._log()):
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
        return list(self._core._log()[0])

    def bottoms(self) -> int:
        """How many logged outputs are ⊥ (no output built)."""
        bottom = self._core._BOTTOM_RECORD
        return sum(1 for record in self._core._log()[1] if record is bottom)

    def records(self) -> list[tuple[Instance, Any]]:
        """The logged ``(instance, record)`` pairs, in log order: a
        chain-form entry is its ``HistoryChain`` link (no history is
        built), ⊥ is ⊥, and any other record the output a read returns."""
        core = self._core
        output, bottom = core._output_of, core._BOTTOM_RECORD
        return [(k, BOTTOM if record is bottom
                 else record if type(record) is HistoryChain
                 else output(k, record))
                for k, record in zip(*core._log())]

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


def _store_field(name: str, doc: str) -> property:
    """A field kept on the cohort store: read there, written on this
    member's private copy (a write on a shared store forks first)."""
    return property(attrgetter("_c." + name),
                    lambda self, value: setattr(self._owned(), name, value),
                    doc=doc)


class SlottedChaCore:
    """:class:`~repro.core.cha.ChaCore` semantics over a cohort store:
    the same methods and quirks (pre-instance ballot receptions still
    create an entry at instance 0; missing-ballot chains still raise)
    and byte-identical outputs, from flat arrays that the members of one
    :class:`_Cohort` share; every wire payload it builds is fresh and
    immutable, and it keeps the adopted wire ballot as the reference does."""

    __slots__ = (
        "_propose", "tag", "reference_history",
        "proposals_made", "_c", "_status_view", "_ballot_view", "_pre",
    )

    def __init__(self, *, propose: Callable[[Instance], Value],
                 tag: Any = "cha",
                 switches: Switches = Switches()) -> None:
        self._propose = propose
        self.tag = tag
        self.reference_history = switches.history
        self.proposals_made: dict[Instance, Value] = {}
        #: The cohort store: private, or shared by a lockstep cohort.
        self._c = _Cohort()
        #: Once merged: (own store, floor, log mark, count offsets).
        self._pre: tuple | None = None
        self._status_view = _StatusView(self)
        self._ballot_view = _BallotView(self)

    # ------------------------------------------------------------------
    # The cohort store: a lone step or a write forks first
    # ------------------------------------------------------------------

    k = _store_field("k", "The current instance.")
    prev_instance = _store_field("prev", "The last good instance.")

    def detach(self) -> None:
        """Prepare a lone step: a member stepped or written on its own
        leaves a shared store for a copy of it (its prefix below a merge
        floor, the store's from there up)."""
        c = self._c
        members = c.members
        if self._pre is not None:
            members.remove(self)
            new = c.copy()
            for name in ("status", "vals", "prevs", "objs", "cache"):
                setattr(new, name, self._array(name))
            new.out_ks, new.out_recs = self._log()
            new.status_count, new.ballot_count = self._counts()
            self._c, self._pre = new, None
        elif members is not None and len(members) > 1:
            members.remove(self)
            self._c = c.copy()

    def _owned(self) -> _Cohort:
        """The storage, private to this member (:meth:`detach` first)."""
        self.detach()
        return self._c

    def _writable(self, k: Instance) -> _Cohort:
        if k < 0:
            raise KeyError(k)  # instances are >= 0 (NO_INSTANCE is 0)
        c = self._owned()
        self._ensure(k)
        return c

    # ------------------------------------------------------------------
    # Storage plumbing
    # ------------------------------------------------------------------

    def _at(self, k: Instance) -> _Cohort:
        """The storage holding this member's slot ``k``."""
        pre = self._pre
        return (pre[0] if pre is not None and isinstance(k, int)
                and k < pre[1] else self._c)

    def _array(self, name: str) -> list:
        """This member's whole array ``name`` (stitched after a merge)."""
        arr, pre = getattr(self._c, name), self._pre
        return arr if pre is None else (
            getattr(pre[0], name)[:pre[1]] + arr[pre[1]:])

    def _counts(self) -> tuple[int, int]:
        """This member's status and ballot entry counts."""
        c, (ds, db) = self._c, self._pre[3:] if self._pre else (0, 0)
        return c.status_count + ds, c.ballot_count + db

    def _log(self) -> tuple[list, list]:
        """This member's output log as (instances, records) lists (a
        stitched copy after a merge)."""
        c, pre = self._c, self._pre
        if pre is None:
            return c.out_ks, c.out_recs
        return (pre[0].out_ks + c.out_ks[pre[2]:],
                pre[0].out_recs + c.out_recs[pre[2]:])

    def _log_len(self) -> int:
        n, pre = len(self._c.out_ks), self._pre
        return n if pre is None else n + len(pre[0].out_ks) - pre[2]

    def _log_at(self, i: int) -> tuple[_Cohort, int]:
        """Where this member's log entry ``i`` is: (storage, index)."""
        pre = self._pre
        if pre is None:
            return self._c, i
        own = len(pre[0].out_ks)
        i = i + self._log_len() if i < 0 else i
        if i < 0:
            raise IndexError("list index out of range")
        return (pre[0], i) if i < own else (self._c, i - own + pre[2])

    def log_shared_from(self) -> int | None:
        """The index from which this member's output log is its store's,
        entry for entry: 0 unless merged, None if a merge shifted it."""
        pre = self._pre
        return 0 if pre is None else (
            pre[2] if len(pre[0].out_ks) == pre[2] else None)

    def _merge_key(self) -> tuple | None:
        """What another core must match to share this one's store from
        ``k`` up (:func:`rejoin`): slot ``k``, the checkpoint and the
        chain head every later fold stops at (None: no head, or a GC
        sweep would reach below ``k``)."""
        c = self._c
        k, prev = c.k, c.prev
        head = (ROOT_CHAIN if prev <= c.ck_inst else
                c.cache[prev] if prev < len(c.cache) else None)
        if (head is None or k >= len(c.status)
                or self._CHECKPOINTED and c.gc_floor != k):
            return None
        return (k, prev, head, c.status[k], c.vals[k], c.prevs[k], c.objs[k],
                c.cache[k], c.ck_inst, c.ck_state)

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
    # Protocol steps.  A ``step_*`` method applies one step to the store
    # once, for every member sharing it (the ensemble's entry point,
    # :class:`~repro.core.cha.CHAEnsemble`); a step for one member alone
    # is preceded by :meth:`detach`.
    # ------------------------------------------------------------------

    def step_begin(self) -> Instance:
        """The store's part of starting the next instance: advance
        ``k`` and paint its slot green.  Returns the new ``k``; each
        member then records its own proposal."""
        c = self._c
        k = c.k = c.k + 1
        arr = c.status
        if k >= len(arr):
            c.grow(k)  # extends in place: ``arr`` stays valid
        if arr[k] < 0:
            c.status_count += 1
        arr[k] = _GREEN
        return k

    propose = ChaCore.propose

    def ballot_payload(self, value: Value) -> BallotPayload:
        """This member's ballot-phase payload for its proposal ``value``."""
        c = self._c
        return BallotPayload(self.tag, c.k, Ballot(value, c.prev))

    def step_ballot(self, ballots: Iterable[Ballot], collision: bool) -> None:
        """Ballot-phase reception: adopt ``min(M)``, or paint red.

        Matches the reference's ``sorted(...)[0]`` including its stable
        tie-break: the *first* minimal wire ballot is the one adopted
        and retained.
        """
        c = self._c
        k = c.k
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
        if best is None:
            arr = c.status
            if k >= len(arr):
                c.grow(k)
            if arr[k] < 0:
                c.status_count += 1
            arr[k] = _RED
            return
        if c.floor and 0 < best.prev_instance <= c.floor and (
                best.prev_instance != c.anchor):
            # A fold would read below the floor (slot ``floor``'s row may
            # lead there unless it is the anchor): prefixed members fork.
            for member in [m for m in c.members or () if m._pre is not None]:
                member.detach()
                member.step_ballot([best], False)
            c.floor = 0
        vals = c.vals
        if k >= len(vals):
            c.grow(k)
        if vals[k] is _ABSENT:
            c.ballot_count += 1
        vals[k] = best.value
        c.prevs[k] = best.prev_instance
        c.objs[k] = best

    # ------------------------------------------------------------------
    # Veto phases
    # ------------------------------------------------------------------

    def has_instance(self) -> bool:
        """True once the current instance has ballot-phase state — i.e.
        veto phases may act (not before the first ``step_begin``, nor
        after a checkpoint reset)."""
        c = self._c
        k = c.k
        arr = c.status
        return k < len(arr) and arr[k] >= 0

    def veto_due(self, phase: int) -> bool:
        """Whether this node vetoes in veto phase ``phase``: red in
        veto-1 (line 21), red or orange in veto-2 (line 25); never
        before the first instance."""
        c = self._c
        k = c.k
        arr = c.status
        if k >= len(arr):
            return False
        code = arr[k]
        return code == _RED if phase == 1 else 0 <= code <= _ORANGE

    def step_veto1(self, veto_seen: bool, collision: bool) -> None:
        """Veto-1 reception: downgrade green to orange."""
        if veto_seen or collision:
            c = self._c
            k = c.k
            arr = c.status
            status = arr[k] if k < len(arr) else _NO_STATUS
            if status < 0:
                raise KeyError(k)
            if status > _ORANGE:
                arr[k] = _ORANGE

    def step_end(self, veto_seen: bool, collision: bool) -> None:
        """Veto-2 reception and end-of-instance bookkeeping (lines
        36-45): logs the instance's output (read it as ``outputs[-1]``)."""
        c = self._c
        k = c.k
        arr = c.status
        status = arr[k] if k < len(arr) else _NO_STATUS
        if status < 0:
            raise KeyError(k)
        if (veto_seen or collision) and status > _YELLOW:
            status = _YELLOW
        if status >= _YELLOW:
            c.prev = k
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
        arr[k] = status
        if status == _GREEN and self._CHECKPOINTED:
            self._fold_to(k, record)
        c.out_ks.append(k)
        c.out_recs.append(record)

    def step_end_single(self) -> None:
        """End-of-instance bookkeeping for the single-veto ablation
        (two-phase CHA): no second downgrade opportunity — green outputs
        its history, everything else outputs bottom."""
        c = self._c
        k = c.k
        arr = c.status
        status = arr[k] if k < len(arr) else _NO_STATUS
        if status < 0:
            raise KeyError(k)
        if status == _GREEN:
            c.prev = k
            record = self._green_record()
        else:
            record = BOTTOM
        c.out_ks.append(k)
        c.out_recs.append(record)

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
        arr = self._at(k).status
        if 0 <= k < len(arr):
            code = arr[k]
            if code >= 0:
                return _COLORS[code]
        return Color.GREEN

    decided_history = ChaCore.decided_history

    def resident_entries(self) -> int:
        """Stored ballot + status entries (space metric for experiment E9)."""
        return sum(self._counts())

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
        c = self._owned()
        c.k = snapshot["k"]
        c.prev = snapshot["prev_instance"]
        c.clear(c.k + 1)
        for k, color in snapshot["status"].items():
            self._status_view[k] = color
        for k, ballot in snapshot["ballots"].items():
            self._ballot_view[k] = ballot


#: The checkpoint core's ⊥ record (``None`` is a legal checkpoint state).
_LOGGED_BOTTOM = Sentinel(__name__, "_LOGGED_BOTTOM")


class SlottedCheckpointChaCore(SlottedChaCore):
    """:class:`~repro.core.checkpoint.CheckpointChaCore` over a cohort
    store: the checkpoint is folded once per cohort, so the reducer runs
    once per cohort per green instance."""

    __slots__ = ("_reducer",)

    checkpoint_instance = _store_field(
        "ck_inst", "Instance up to which the checkpoint folds.")
    checkpoint_state = _store_field(
        "ck_state", "The application state folded up to the checkpoint.")

    def __init__(self, *, propose: Callable[[Instance], Value],
                 reducer: Reducer, initial_state: Any,
                 tag: Any = "cha",
                 switches: Switches = Switches()) -> None:
        super().__init__(propose=propose, tag=tag, switches=switches)
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
        c = self._c
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
        c = self._owned()
        c.k = c.prev = instance
        c.ck_inst = instance
        c.ck_state = state
        c.clear(instance + 1)
