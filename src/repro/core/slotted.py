"""Slotted/flat-array protocol cores for the CHA family.

The dict-based :class:`~repro.core.cha.ChaCore` indexes every piece of
per-instance state (colour, adopted ballot, cached fold) through hash
lookups and allocates a fresh ``Ballot`` + ``BallotPayload`` pair per
node per instance.  After PR 5 pushed engine dispatch down to ~15% of
wall time, that per-instance churn *is* the profile.  This module keeps
the same observable protocol behaviour in flat storage:

* colours live in a ``list[int]`` indexed by instance (``-1`` = absent),
* adopted ballots are parallel ``(value, prev_instance)`` rows, with the
  ``Ballot`` object materialised only at wire/snapshot boundaries (and
  the exact wire object retained when traces may hold it, so pickled
  traces keep their object-sharing structure),
* the fold cache is a parallel ``list[HistoryChain | None]`` — an array
  fast path for :meth:`_fold_chain`'s cache probe,
* wire payloads can be pooled across rounds (``pool_payloads=True``):
  one ``BallotPayload``/``Ballot`` and one ``VetoPayload`` per veto
  phase are mutated in place each round.  Pooling is only safe when
  nothing retains wire objects across rounds, i.e. when the run keeps
  no trace; the experiment runner enables it exactly for
  ``keep_trace=False`` cluster runs.

The dict-based cores remain the executable specification behind the
``core`` axis of :class:`~repro.switches.Switches`
(``REPRO_REFERENCE_CORE=1``), and the differential suite pins the two
byte-identical.

``status`` and ``ballots`` stay available as live, writable
dict-style views (tests and glass-box checkers mutate protocol state
through them); only the hot paths bypass the views.

The output log is two parallel lists: instance numbers and output
*records*.  The record of a green instance is the interned
:class:`~repro.core.history.HistoryChain` link its history wraps — after
``rcf`` the one link every lockstep node shares — and ⊥ is ``BOTTOM``;
the checkpoint core records the checkpoint state its output wrapped (the
fold leaves the suffix empty, so the rest is derivable) and a sentinel
for ⊥.  A decided instance therefore appends two pointers per node and
leaves no per-node object behind for the cyclic collector to re-walk.
``outputs`` is a live, writable :class:`~collections.abc.MutableSequence`
view over the lists that builds a fresh ``(instance, output)`` pair per
read: a pair shared between reads or between nodes would change which
objects a pickled log shares, against both reference twins.  Only the
end-of-instance steps append records; everything else — tests forging
an output or replacing a whole log through the ``outputs`` setter —
writes through the view, which keeps what it is given verbatim
(so does the reference fold's dict-form ``History``).  The view pickles
as a plain ``list`` and is never stored on the core; byte-identity with
the dict core is defined on ``list(log)``.

The checkpoint core's garbage collection is incremental.
:class:`SlottedCheckpointChaCore` keeps a **GC floor**: every slot below
``_gc_floor`` holds no status, no ballot and no cached fold.  A green
instance sweeps ``[floor, green)`` — the instances since the last green
one, O(1) in steady state — and raises the floor to ``green``; nothing
else raises it.  The protocol steps write at the current instance or
above it, never below the floor; every other writer (the views, and
through them the ``status`` / ``ballots`` setters and ``restore``)
announces its slot to ``_ensure``, which lowers the floor to it, and
``_clear_storage`` (``restore``, ``reset_to``) drops it to 0.  The
plain :class:`SlottedChaCore` never collects and carries no floor.
"""

from __future__ import annotations

from collections.abc import MutableMapping, MutableSequence
from typing import Any, Callable, Iterable, Iterator, Mapping

from ..errors import ProtocolError
from ..switches import Switches
from ..types import BOTTOM, Color, Instance, NO_INSTANCE, Sentinel, Value
from .ballot import Ballot, BallotPayload, VetoPayload
from .cha import calculate_history_reference
from .checkpoint import CheckpointOutput, Reducer
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


class _StatusView(MutableMapping):
    """Live dict view over a slotted core's colour array."""

    __slots__ = ("_core",)

    def __init__(self, core: "SlottedChaCore") -> None:
        self._core = core

    def __getitem__(self, k: Instance) -> Color:
        arr = self._core._status_arr
        if isinstance(k, int) and 0 <= k < len(arr):
            code = arr[k]
            if code >= 0:
                return _COLORS[code]
        raise KeyError(k)

    def __setitem__(self, k: Instance, color: Color) -> None:
        code = int(color)
        if not 0 <= code <= 3:
            raise ValueError(f"not a CHAP colour: {color!r}")
        core = self._core
        core._ensure(k)
        if core._status_arr[k] < 0:
            core._status_count += 1
        core._status_arr[k] = code

    def __delitem__(self, k: Instance) -> None:
        core = self._core
        arr = core._status_arr
        if isinstance(k, int) and 0 <= k < len(arr) and arr[k] >= 0:
            arr[k] = _NO_STATUS
            core._status_count -= 1
            return
        raise KeyError(k)

    def __iter__(self) -> Iterator[Instance]:
        arr = self._core._status_arr
        return (k for k in range(len(arr)) if arr[k] >= 0)

    def __len__(self) -> int:
        return self._core._status_count

    def __repr__(self) -> str:
        return repr(dict(self))


class _BallotView(MutableMapping):
    """Live dict view over a slotted core's ballot rows.

    Reads materialise (and cache) ``Ballot`` objects on demand; in
    unpooled runs the cached object is the exact wire ballot the core
    adopted, so snapshots preserve the reference core's object sharing.
    """

    __slots__ = ("_core",)

    def __init__(self, core: "SlottedChaCore") -> None:
        self._core = core

    def __getitem__(self, k: Instance) -> Ballot:
        core = self._core
        vals = core._ballot_vals
        if isinstance(k, int) and 0 <= k < len(vals):
            value = vals[k]
            if value is not _ABSENT:
                obj = core._ballot_objs[k]
                if obj is None:
                    obj = Ballot(value, core._ballot_prevs[k])
                    core._ballot_objs[k] = obj
                return obj
        raise KeyError(k)

    def __setitem__(self, k: Instance, ballot: Ballot) -> None:
        core = self._core
        core._ensure(k)
        if core._ballot_vals[k] is _ABSENT:
            core._ballot_count += 1
        core._ballot_vals[k] = ballot.value
        core._ballot_prevs[k] = ballot.prev_instance
        core._ballot_objs[k] = ballot

    def __delitem__(self, k: Instance) -> None:
        core = self._core
        vals = core._ballot_vals
        if isinstance(k, int) and 0 <= k < len(vals) and vals[k] is not _ABSENT:
            vals[k] = _ABSENT
            core._ballot_objs[k] = None
            core._ballot_count -= 1
            return
        raise KeyError(k)

    def __iter__(self) -> Iterator[Instance]:
        vals = self._core._ballot_vals
        return (k for k in range(len(vals)) if vals[k] is not _ABSENT)

    def __len__(self) -> int:
        return self._core._ballot_count

    def __repr__(self) -> str:
        return repr(dict(self))


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
        return len(self._core._out_ks)

    def __getitem__(self, i):
        core = self._core
        if isinstance(i, slice):
            output = core._output_of
            return [(k, output(k, record)) for k, record
                    in zip(core._out_ks[i], core._out_recs[i])]
        k = core._out_ks[i]
        return k, core._output_of(k, core._out_recs[i])

    def __iter__(self) -> Iterator[tuple[Instance, Any]]:
        core = self._core
        output = core._output_of
        for k, record in zip(core._out_ks, core._out_recs):
            yield k, output(k, record)

    def __setitem__(self, i, item) -> None:
        core = self._core
        if isinstance(i, slice):
            pairs = list(item)
            core._out_ks[i] = [k for k, _ in pairs]
            core._out_recs[i] = [core._record_of(out) for _, out in pairs]
        else:
            k, out = item
            core._out_ks[i] = k
            core._out_recs[i] = core._record_of(out)

    def __delitem__(self, i) -> None:
        core = self._core
        del core._out_ks[i]
        del core._out_recs[i]

    def insert(self, i: int, item) -> None:
        core = self._core
        k, out = item
        core._out_ks.insert(i, k)
        core._out_recs.insert(i, core._record_of(out))

    def instances(self) -> list[Instance]:
        """The logged instance numbers, in log order (no output built)."""
        return list(self._core._out_ks)

    def bottoms(self) -> int:
        """How many logged outputs are ⊥ (no output built)."""
        bottom = self._core._BOTTOM_RECORD
        return sum(1 for record in self._core._out_recs if record is bottom)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (list, _OutputLog)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None  # mutable, like the list it stands in for

    def __reduce__(self):
        return list, (list(self),)

    def __repr__(self) -> str:
        return repr(list(self))


class SlottedChaCore:
    """:class:`~repro.core.cha.ChaCore` semantics over flat arrays.

    Duck-type compatible with the dict-based core — same methods, same
    quirks (pre-instance ballot receptions still create an entry at
    instance 0; missing-ballot chains still raise), byte-identical
    outputs — with per-instance state in parallel arrays and optional
    wire-payload pooling.
    """

    __slots__ = (
        "_propose", "tag", "reference_history", "pool_payloads",
        "k", "prev_instance", "proposals_made", "_out_ks", "_out_recs",
        "_status_arr", "_ballot_vals", "_ballot_prevs", "_ballot_objs",
        "_fold_cache", "_status_count", "_ballot_count",
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
        # The output log: parallel lists indexed by log position.
        self._out_ks: list[Instance] = []
        self._out_recs: list[Any] = []
        # Parallel arrays indexed by instance (index 0 is the
        # NO_INSTANCE slot: normally empty, but reachable through the
        # same quirks as the reference dicts).
        self._status_arr: list[int] = [_NO_STATUS]
        self._ballot_vals: list[Any] = [_ABSENT]
        self._ballot_prevs: list[Instance] = [NO_INSTANCE]
        self._ballot_objs: list[Ballot | None] = [None]
        self._fold_cache: list[HistoryChain | None] = [None]
        self._status_count = 0
        self._ballot_count = 0
        self._status_view = _StatusView(self)
        self._ballot_view = _BallotView(self)
        self._pooled_ballot_payload: BallotPayload | None = None
        self._pooled_veto1: VetoPayload | None = None
        self._pooled_veto2: VetoPayload | None = None

    # ------------------------------------------------------------------
    # Storage plumbing
    # ------------------------------------------------------------------

    def _ensure(self, k: Instance) -> None:
        """Grow all parallel arrays to cover instance ``k``.

        Over-allocates (doubling) so the once-per-instance hot paths,
        which guard with ``k >= len(arr)``, amortise growth to O(1):
        empty slots hold the same sentinels a fresh array would, so
        capacity beyond ``k`` is observationally inert.
        """
        arr = self._status_arr
        need = k + 1 - len(arr)
        if need > 0:
            grow = max(need, len(arr), 8)
            arr.extend([_NO_STATUS] * grow)
            self._ballot_vals.extend([_ABSENT] * grow)
            self._ballot_prevs.extend([NO_INSTANCE] * grow)
            self._ballot_objs.extend([None] * grow)
            self._fold_cache.extend([None] * grow)

    def _clear_storage(self, length: int) -> None:
        self._status_arr = [_NO_STATUS] * length
        self._ballot_vals = [_ABSENT] * length
        self._ballot_prevs = [NO_INSTANCE] * length
        self._ballot_objs = [None] * length
        self._fold_cache = [None] * length
        self._status_count = 0
        self._ballot_count = 0

    @property
    def status(self) -> MutableMapping:
        return self._status_view

    @status.setter
    def status(self, mapping: Mapping[Instance, Color]) -> None:
        arr = self._status_arr
        for i in range(len(arr)):
            arr[i] = _NO_STATUS
        self._status_count = 0
        view = self._status_view
        for k, color in mapping.items():
            view[k] = color

    @property
    def ballots(self) -> MutableMapping:
        return self._ballot_view

    @ballots.setter
    def ballots(self, mapping: Mapping[Instance, Ballot]) -> None:
        vals = self._ballot_vals
        objs = self._ballot_objs
        for i in range(len(vals)):
            vals[i] = _ABSENT
            objs[i] = None
        self._ballot_count = 0
        view = self._ballot_view
        for k, ballot in mapping.items():
            view[k] = ballot

    #: The log record of a ⊥ output.
    _BOTTOM_RECORD: Any = BOTTOM

    def _output_of(self, k: Instance, record: Any) -> Any:
        """The output a log record stands for: a chain link is the
        history of instance ``k`` over it, anything else is itself."""
        if type(record) is HistoryChain:
            return History._from_chain(k, record)
        return record

    def _record_of(self, output: Any) -> Any:
        """The record a written output is kept as: the output itself."""
        return output

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

    def _begin(self) -> Value:
        """Advance ``k``, record the proposal, paint the slot green."""
        k = self.k + 1
        self.k = k
        value = self._propose(k)
        self.proposals_made[k] = value
        arr = self._status_arr
        if k >= len(arr):
            self._ensure(k)  # extends in place: ``arr`` stays valid
        if arr[k] < 0:
            self._status_count += 1
        arr[k] = _GREEN
        return value

    def begin_instance(self) -> BallotPayload:
        """Start the next instance; always returns a fresh payload
        (compatibility path — the pooled hot path is
        :meth:`begin_instance_send`)."""
        value = self._begin()
        return BallotPayload(
            tag=self.tag,
            instance=self.k,
            ballot=Ballot(value, self.prev_instance),
        )

    def begin_instance_send(self, active: bool) -> BallotPayload | None:
        """Start the next instance and produce the wire payload iff the
        contention manager advises broadcasting (lines 14-19).

        Inactive nodes advance their state without allocating anything;
        active nodes reuse the pooled payload when pooling is on.
        """
        value = self._begin()
        if not active:
            return None
        if not self.pool_payloads:
            return BallotPayload(
                tag=self.tag,
                instance=self.k,
                ballot=Ballot(value, self.prev_instance),
            )
        payload = self._pooled_ballot_payload
        if payload is None:
            payload = BallotPayload(
                tag=self.tag,
                instance=self.k,
                ballot=Ballot(value, self.prev_instance),
            )
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
            arr = self._status_arr
            if k >= len(arr):
                self._ensure(k)
            if arr[k] < 0:
                self._status_count += 1
            arr[k] = _RED
            return
        vals = self._ballot_vals
        if k >= len(vals):
            self._ensure(k)
        if vals[k] is _ABSENT:
            self._ballot_count += 1
        vals[k] = best.value
        self._ballot_prevs[k] = best.prev_instance
        # Pooled wire ballots are mutated next round; only retain the
        # object when the run may hold it (trace/snapshot sharing).
        self._ballot_objs[k] = None if self.pool_payloads else best

    # ------------------------------------------------------------------
    # Veto phases
    # ------------------------------------------------------------------

    def has_instance(self) -> bool:
        """True once the current instance has ballot-phase state — i.e.
        veto phases may act.  False before ``begin_instance`` has run
        (a node powered up mid-grid) and after a checkpoint reset."""
        k = self.k
        arr = self._status_arr
        return k < len(arr) and arr[k] >= 0

    def wants_veto1(self) -> bool:
        """Broadcast ⟨veto⟩ in veto-1 iff the instance is red (line 21).

        Inert (False) before the first instance has begun."""
        k = self.k
        arr = self._status_arr
        return k < len(arr) and arr[k] == _RED

    def veto1_payload(self) -> VetoPayload | None:
        """The veto-1 wire payload, or None (pooled hot path)."""
        k = self.k
        arr = self._status_arr
        if k >= len(arr) or arr[k] != _RED:
            return None
        if not self.pool_payloads:
            return VetoPayload(self.tag, k, 1)
        payload = self._pooled_veto1
        if payload is None:
            payload = VetoPayload(self.tag, k, 1)
            self._pooled_veto1 = payload
        else:
            object.__setattr__(payload, "instance", k)
        return payload

    def on_veto1_reception(self, veto_seen: bool, collision: bool) -> None:
        """Veto-1 reception (lines 33-35): downgrade green to orange."""
        if veto_seen or collision:
            k = self.k
            arr = self._status_arr
            status = arr[k] if k < len(arr) else _NO_STATUS
            if status < 0:
                raise KeyError(k)
            if status > _ORANGE:
                arr[k] = _ORANGE

    def wants_veto2(self) -> bool:
        """Broadcast ⟨veto⟩ in veto-2 iff red or orange (line 25).

        Inert (False) before the first instance has begun."""
        k = self.k
        arr = self._status_arr
        return k < len(arr) and 0 <= arr[k] <= _ORANGE

    def veto2_payload(self) -> VetoPayload | None:
        """The veto-2 wire payload, or None (pooled hot path)."""
        k = self.k
        arr = self._status_arr
        if k >= len(arr) or not 0 <= arr[k] <= _ORANGE:
            return None
        if not self.pool_payloads:
            return VetoPayload(self.tag, k, 2)
        payload = self._pooled_veto2
        if payload is None:
            payload = VetoPayload(self.tag, k, 2)
            self._pooled_veto2 = payload
        else:
            object.__setattr__(payload, "instance", k)
        return payload

    def end_instance(self, veto_seen: bool, collision: bool) -> None:
        """Veto-2 reception and end-of-instance bookkeeping (lines
        36-45): records the instance's output and returns nothing — the
        process wrappers' entry point (:meth:`on_veto2_reception` is
        this plus a read of the log)."""
        k = self.k
        arr = self._status_arr
        status = arr[k] if k < len(arr) else _NO_STATUS
        if status < 0:
            raise KeyError(k)
        if (veto_seen or collision) and status > _YELLOW:
            status = _YELLOW
            arr[k] = _YELLOW
        if status >= _YELLOW:
            self.prev_instance = k
        if status != _GREEN:
            record = BOTTOM
        elif self.reference_history:
            record = self._green_record()
        else:
            # Inline fast path for the dominant green case: skip the
            # current_history frame and the History it would wrap.
            record = self._fold_chain(k, self.prev_instance)
        self._out_ks.append(k)
        self._out_recs.append(record)

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
        arr = self._status_arr
        status = arr[k] if k < len(arr) else _NO_STATUS
        if status < 0:
            raise KeyError(k)
        if status == _GREEN:
            self.prev_instance = k
            record = self._green_record()
        else:
            record = BOTTOM
        self._out_ks.append(k)
        self._out_recs.append(record)

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
        cache = self._fold_cache
        vals = self._ballot_vals
        prevs = self._ballot_prevs
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

    def _missing_ballot(self, k: Instance) -> None:
        """Chain reached an instance with no stored ballot (line 49)."""
        raise ProtocolError(
            f"calculate-history reached instance {k} on the chain "
            "but no ballot is stored for it"
        )

    def color_of(self, k: Instance) -> Color:
        """Colour this node assigns instance ``k`` (green if untouched)."""
        arr = self._status_arr
        if 0 <= k < len(arr):
            code = arr[k]
            if code >= 0:
                return _COLORS[code]
        return Color.GREEN

    def decided_history(self) -> History | None:
        """The most recent non-bottom output, if any."""
        ks, records = self._out_ks, self._out_recs
        bottom = self._BOTTOM_RECORD
        for i in range(len(records) - 1, -1, -1):
            if records[i] is not bottom:
                return self._output_of(ks[i], records[i])
        return None

    def resident_entries(self) -> int:
        """Stored ballot + status entries (space metric for experiment E9)."""
        return self._ballot_count + self._status_count

    # ------------------------------------------------------------------
    # State transfer (used by the emulation's join protocol)
    # ------------------------------------------------------------------

    def snapshot(self) -> dict:
        """A copyable snapshot of the protocol state.

        Dicts are materialised in ascending instance order — the order
        the reference core's insertion-ordered dicts carry in practice —
        and ballot objects are the retained/cached ones, so pickled
        snapshots share structure with the trace exactly as the
        reference core's do.
        """
        arr = self._status_arr
        status = {}
        for k in range(len(arr)):
            code = arr[k]
            if code >= 0:
                status[k] = _COLORS[code]
        vals = self._ballot_vals
        view = self._ballot_view
        ballots = {}
        for k in range(len(vals)):
            if vals[k] is not _ABSENT:
                ballots[k] = view[k]
        return {
            "k": self.k,
            "prev_instance": self.prev_instance,
            "status": status,
            "ballots": ballots,
        }

    def restore(self, snapshot: Mapping) -> None:
        """Adopt a snapshot produced by :meth:`snapshot`."""
        self.k = snapshot["k"]
        self.prev_instance = snapshot["prev_instance"]
        self._clear_storage(self.k + 1)
        status_view = self._status_view
        for k, color in snapshot["status"].items():
            status_view[k] = color
        ballot_view = self._ballot_view
        for k, ballot in snapshot["ballots"].items():
            ballot_view[k] = ballot


class _Verbatim:
    """A checkpoint-core log record holding an output as written (a
    checkpoint state can be any object, so the ones the protocol did not
    derive are boxed)."""

    __slots__ = ("output",)

    def __init__(self, output: Any) -> None:
        self.output = output


#: The checkpoint core's ⊥ record (``None`` is a legal checkpoint state).
_LOGGED_BOTTOM = Sentinel(__name__, "_LOGGED_BOTTOM")


class SlottedCheckpointChaCore(SlottedChaCore):
    """:class:`~repro.core.checkpoint.CheckpointChaCore` over flat arrays."""

    __slots__ = ("_reducer", "checkpoint_instance", "checkpoint_state",
                 "_gc_floor")

    def __init__(self, *, propose: Callable[[Instance], Value],
                 reducer: Reducer, initial_state: Any,
                 tag: Any = "cha",
                 switches: Switches | None = None,
                 pool_payloads: bool = False) -> None:
        super().__init__(propose=propose, tag=tag, switches=switches,
                         pool_payloads=pool_payloads)
        self._reducer = reducer
        self.checkpoint_instance: Instance = NO_INSTANCE
        self.checkpoint_state: Any = initial_state
        #: The GC floor: every slot below it holds no status, no ballot
        #: and no cached fold.  Raised only by :meth:`_fold_to`.
        self._gc_floor: Instance = 0

    # -- the GC floor ---------------------------------------------------

    def _ensure(self, k: Instance) -> None:
        """Every write that is not a protocol step — the ``status`` /
        ``ballots`` views, and through them the setters and
        :meth:`restore` — announces its slot here first, so this is
        where a write below the GC floor lowers it.  (The protocol
        steps write at ``self.k`` or above it, which a fold leaves at or
        above the floor, and reach here only to grow the arrays.)"""
        if k < self._gc_floor:
            self._gc_floor = max(k, 0)
        super()._ensure(k)

    def _clear_storage(self, length: int) -> None:
        # restore() refills below any old floor, and after reset_to() a
        # pre-instance reception may write at ``k`` itself.
        super()._clear_storage(length)
        self._gc_floor = 0

    # -- folding --------------------------------------------------------

    def _fold_to(self, green: Instance, history: History | None = None) -> None:
        """Advance the checkpoint to the green instance ``green`` and
        garbage-collect every entry below it (the ballot *at* the
        checkpoint survives as the chain anchor).

        Slots below ``_gc_floor`` are known empty, so the sweep covers
        ``[floor, green)`` — the instances since the last green one —
        and leaves the floor at ``green``; whoever writes below it
        afterwards lowers it again (:meth:`_ensure`,
        :meth:`_clear_storage`)."""
        if history is None:
            history = self.current_history()
        state = self.checkpoint_state
        # One pass over the fold: ``history(k)`` walks from the tip, so
        # reading it per instance would be quadratic in the gap.
        at = dict(history.items())
        for k in range(self.checkpoint_instance + 1, green + 1):
            state = self._reducer(state, k, at.get(k, BOTTOM))
        self.checkpoint_state = state
        self.checkpoint_instance = green
        arr = self._status_arr
        vals = self._ballot_vals
        objs = self._ballot_objs
        floor = self._gc_floor
        swept = min(green, len(arr))
        for k in range(floor, swept):
            if arr[k] >= 0:
                arr[k] = _NO_STATUS
                self._status_count -= 1
            if vals[k] is not _ABSENT:
                vals[k] = _ABSENT
                objs[k] = None
                self._ballot_count -= 1
        if swept > floor:
            self._gc_floor = swept
        # Cached folds were anchored at the old checkpoint floor (see
        # CheckpointChaCore._fold_to); drop them all.  A fold is cached
        # only at an instance that stores a ballot, no later than the
        # ``k`` it was computed at: nothing sits outside [floor, k].
        cache = self._fold_cache
        for k in range(floor, min(self.k + 1, len(cache))):
            cache[k] = None

    def end_instance(self, veto_seen: bool, collision: bool) -> None:
        """End of instance: green instances fold-and-GC and output the
        ``(checkpoint, suffix)`` pair instead of a full history."""
        k = self.k
        arr = self._status_arr
        status = arr[k] if k < len(arr) else _NO_STATUS
        if status < 0:
            raise KeyError(k)
        if (veto_seen or collision) and status > _YELLOW:
            status = _YELLOW
            arr[k] = _YELLOW
        if status >= _YELLOW:
            self.prev_instance = k
        if status == _GREEN:
            # The fold leaves the checkpoint at ``k`` with an empty
            # suffix, so the new state is the whole output.
            self._fold_to(k)
            record = self.checkpoint_state
        else:
            record = _LOGGED_BOTTOM
        self._out_ks.append(k)
        self._out_recs.append(record)

    # -- the output log ---------------------------------------------------

    _BOTTOM_RECORD = _LOGGED_BOTTOM

    def _output_of(self, k: Instance, record: Any) -> Any:
        """A bare record is the checkpoint state of green instance
        ``k``, whose output wrapped it with the empty suffix; anything
        written through the view comes back as it went in."""
        if record is _LOGGED_BOTTOM:
            return BOTTOM
        if type(record) is _Verbatim:
            return record.output
        return CheckpointOutput(k, record, History._from_chain(k, ROOT_CHAIN))

    def _record_of(self, output: Any) -> Any:
        return _LOGGED_BOTTOM if output is BOTTOM else _Verbatim(output)

    # -- checkpointed view ----------------------------------------------

    def current_checkpoint_output(self, history: History | None = None
                                  ) -> CheckpointOutput:
        """The (checkpoint, suffix) pair for the current chain."""
        if history is None:
            history = self.current_history()
        suffix_entries = {
            k: v for k, v in history.items() if k > self.checkpoint_instance
        }
        return CheckpointOutput(
            checkpoint_instance=self.checkpoint_instance,
            checkpoint_state=self.checkpoint_state,
            suffix=History(history.length, suffix_entries),
        )

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
        self.checkpoint_instance = instance
        self.checkpoint_state = state
        self._clear_storage(instance + 1)

    def current_history(self) -> History:
        """Chain reconstruction that stops at the checkpoint anchor."""
        if self.reference_history:
            entries: dict[Instance, Value] = {}
            k = self.k
            prev = self.prev_instance
            ballots = self._ballot_view
            while k > self.checkpoint_instance:
                if k == prev:
                    ballot = ballots[k]
                    entries[k] = ballot.value
                    prev = ballot.prev_instance
                k -= 1
            return History(self.k, entries)
        return History._from_chain(self.k, self._fold_chain(
            self.k, self.prev_instance, floor=self.checkpoint_instance))

    def _missing_ballot(self, k: Instance) -> None:
        # The seed checkpoint walk indexes ballots directly, so a broken
        # chain surfaces as a KeyError rather than a ProtocolError.
        raise KeyError(k)
