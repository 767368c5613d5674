"""The history datatype of Section 3.2, backed by a shared fold chain.

A history is a function ``h : N -> V ∪ {⊥}``.  An output produced for
instance ``k`` is defined on instances ``1..k`` (the paper indexes
instances from 1); we represent it sparsely as the mapping of instances to
their *non-bottom* values plus the length ``k``.

Histories are immutable and hashable so they can be collected, compared
and deduplicated by the spec checkers.

Two representations coexist behind the one :class:`History` type:

* the **dict form** (the seed representation): entries are supplied as a
  mapping, validated, sorted and stored as a tuple.  This is what the
  reference fold :func:`~repro.core.cha.calculate_history_reference`
  produces and what tests construct directly.
* the **chain form**: a :class:`HistoryChain` node — one link of a
  structurally shared, interned spine mirroring the protocol's
  ``prev-instance`` chain.  :class:`~repro.core.cha.ChaCore` extends the
  previous instance's fold by one link instead of re-walking, so
  producing an output is O(1), and two histories over the same chain
  share every link.

Interning (type-exact, so ``True``/``1``/``1.0`` never swap objects)
resolves equal same-typed paths to the same chain node, so ``extends`` /
``agrees_with`` / ``prefix`` short-circuit positively on chain identity
instead of rebuilding and comparing prefix dictionaries; distinct spines
fall back to entry comparison.  Point reads (``h(k)``, ``includes``) walk
the chain and allocate nothing; entry tuples and hashes are materialised
only when something asks for a history's whole contents (``items``,
``==`` across spines, ``hash``, ``repr``, pickling), one tuple for the
link that was asked.  ``docs/ARCHITECTURE.md`` tabulates what each read
costs.

The ``history`` axis of :class:`~repro.switches.Switches`
(``spec.switches``) pins every protocol core to the seed fold; the
differential suite (``tests/core/test_history_differential.py``)
asserts both engines are byte-identical end to end.
"""

from __future__ import annotations

import weakref
from typing import Iterator, Mapping

from ..types import BOTTOM, Instance, Value

#: Current interning generation (see :func:`new_chain_generation`).
_chain_generation = 0

#: High-water mark: generations are allocated from here so re-activating
#: an old generation can never hand its number to a new execution.
_generation_counter = 0


def new_chain_generation() -> int:
    """Open a fresh chain-interning generation and return its number.

    Interning dedups chain links under ``(generation, anchor, key)``, so
    links from different generations never resolve to the same object.
    The experiment stepper opens a generation per execution: without
    this, a previous run's not-yet-collected chains could satisfy the
    current run's interning probes, handing back links whose *value*
    objects come from the dead run — equal, but distinct from the values
    on this run's wire, which changes which objects a pickled result
    shares between its trace and its outputs.  Byte-identity of a run's
    observables would then depend on garbage-collector timing.  Scoping
    interning per execution keeps all sharing within a run (where every
    participant folds the same wire objects) and none across runs.
    """
    global _chain_generation, _generation_counter
    _generation_counter += 1
    _chain_generation = _generation_counter
    return _chain_generation


def activate_chain_generation(generation: int) -> int:
    """Make ``generation`` the current interning generation.

    Returns the previously current generation so callers can restore it.
    Executions that *interleave* — several live
    :class:`~repro.experiment.runner.ExperimentStepper`\\ s advanced in
    turns on one event loop, as the multi-world service does — must
    re-activate their own generation around every step: constructing
    world B mid-run of world A would otherwise split A's interning
    across two generations, so equal folds from either side of the
    split stop being the same object and A's pickled sharing structure
    diverges from an uninterrupted batch run of the same spec.
    """
    global _chain_generation
    previous = _chain_generation
    _chain_generation = generation
    return previous


def _intern_key(value):
    """A type-exact interning key for a fold value, or raise TypeError.

    Plain ``(anchor, value)`` dict keys would conflate equal-but-distinct
    values (``True == 1 == 1.0``, ``0.0 == -0.0``), letting one core's
    interned value object silently replace another's differently-typed
    one — observable through reducers, ``repr`` and pickles, breaking the
    byte-identical equivalence guarantee.  Keys are therefore tagged with
    the exact class recursively; floats key on their repr (which
    separates ``-0.0``) except NaN, and any type outside the closed list
    raises ``TypeError`` so the caller falls back to a private,
    non-interned link (comparisons then use entry tuples — slower, never
    wrong).
    """
    cls = value.__class__
    if cls is str or cls is bytes or cls is int or cls is bool:
        return (cls, value)
    if cls is float:
        if value != value:  # NaN: x != x, so lookups could never
            raise TypeError("NaN values are not interned")
        return (cls, repr(value))
    if cls is tuple:
        return (cls, tuple(_intern_key(v) for v in value))
    if cls is frozenset:
        return (cls, frozenset(_intern_key(v) for v in value))
    raise TypeError(f"{cls.__name__} values are not interned")


class HistoryChain:
    """One link of a structurally shared ``prev-instance`` fold.

    A node represents the fold of a whole chain: the entry
    ``(anchor, value)`` plus everything below it via ``parent``.  Links
    are **interned** per parent (weakly, so finished runs can be
    collected) under the type-exact key of :func:`_intern_key`, scoped
    to the current :func:`new_chain_generation`: among live same-
    generation nodes, type-identical equal paths are the same object,
    which is what lets :class:`History` short-circuit prefix comparisons
    on identity.  Interning fails soft — an unhashable or non-internable
    value yields a private, non-interned node and the comparisons fall
    back to entry tuples, exactly the seed semantics.

    Anchors strictly decrease towards the root, mirroring the protocol
    invariant that ``prev-instance`` pointers only point downward.
    """

    __slots__ = ("parent", "anchor", "value", "depth", "interned",
                 "_children", "_entries", "_last_child", "__weakref__")

    def __init__(self, parent: "HistoryChain | None", anchor: Instance,
                 value: Value, *, interned: bool) -> None:
        self.parent = parent
        self.anchor = anchor
        self.value = value
        self.depth = 0 if parent is None else parent.depth + 1
        self.interned = interned
        self._children: weakref.WeakValueDictionary | None = (
            weakref.WeakValueDictionary() if interned else None
        )
        self._entries: tuple[tuple[Instance, Value], ...] | None = (
            () if parent is None else None
        )
        self._last_child: tuple | None = None

    def child(self, anchor: Instance, value: Value) -> "HistoryChain":
        """The (interned) link extending this fold by one entry."""
        # Lockstep fast path: a whole cohort folds the same wire value
        # object onto the same parent in one round, so remember the last
        # interned link and serve repeats by identity — same result as
        # the interning probe (``v is value`` implies equal intern keys)
        # without the key construction or the weak lookup.  The
        # generation check keeps a dead run's pinned link from ever
        # resolving in the next run.
        last = self._last_child
        if (last is not None and last[2] is value and last[1] == anchor
                and last[0] == _chain_generation):
            return last[3]
        kids = self._children
        if kids is None:
            return HistoryChain(self, anchor, value, interned=False)
        try:  # unhashable / non-internable value: private node, no dedup
            key = (_chain_generation, anchor, _intern_key(value))
            node = kids.get(key)
        except TypeError:
            return HistoryChain(self, anchor, value, interned=False)
        if node is None:
            node = HistoryChain(self, anchor, value, interned=True)
            kids[key] = node
        self._last_child = (_chain_generation, anchor, value, node)
        return node

    def prefix(self, cut: Instance) -> "HistoryChain":
        """The deepest link whose anchor is at most ``cut`` (``cut >= 0``)."""
        node = self
        while node.anchor > cut:
            node = node.parent  # root anchors at 0, so this terminates
        return node

    def entries(self) -> tuple[tuple[Instance, Value], ...]:
        """The (instance, value) pairs of this fold, ascending.

        Materialised lazily and cached on the link that was asked only:
        one walk down to the nearest link that already holds its tuple.
        Links in between stay bare, so a spine read at every instance
        does not pin a tuple per link.
        """
        cached = self._entries
        if cached is not None:
            return cached
        tail = []
        node = self
        while node._entries is None:
            tail.append((node.anchor, node.value))
            node = node.parent
        tail.reverse()
        cached = self._entries = node._entries + tuple(tail)
        return cached

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"HistoryChain(anchor={self.anchor}, depth={self.depth}, "
                f"interned={self.interned})")


#: The shared empty fold every chain grows from.
ROOT_CHAIN = HistoryChain(None, 0, None, interned=True)


class History:
    """An immutable CHA output history, defined on instances ``1..length``."""

    __slots__ = ("length", "_chain", "_entries", "_lookup", "_hash")

    def __init__(self, length: Instance, entries: Mapping[Instance, Value]) -> None:
        if length < 0:
            raise ValueError("history length must be non-negative")
        for k, v in entries.items():
            if not 1 <= k <= length:
                raise ValueError(f"history entry at instance {k} outside 1..{length}")
            if v is BOTTOM:
                raise ValueError("bottom values must be omitted, not stored")
        self.length = length
        self._entries: tuple[tuple[Instance, Value], ...] = tuple(
            sorted(entries.items())
        )
        self._lookup = dict(self._entries)
        self._chain: HistoryChain | None = None
        self._hash: int | None = None

    @classmethod
    def _from_chain(cls, length: Instance, chain: HistoryChain) -> "History":
        """Internal O(1) constructor over an already-folded chain.

        The chain is trusted to lie within ``1..length`` (the fold walk
        guarantees it), so the dict-form validation is skipped, entries
        and hash stay unmaterialised until something asks for them, and
        no lookup table is ever built (point reads walk the chain).
        """
        h = object.__new__(cls)
        h.length = length
        h._chain = chain
        h._entries = None
        h._lookup = None
        h._hash = None
        return h

    # ------------------------------------------------------------------
    # Representation plumbing
    # ------------------------------------------------------------------

    def _materialized(self) -> tuple[tuple[Instance, Value], ...]:
        entries = self._entries
        if entries is None:
            entries = self._entries = self._chain.entries()
        return entries

    def _as_chain(self) -> HistoryChain:
        """This history's fold chain, derived (and interned) on demand."""
        chain = self._chain
        if chain is None:
            chain = ROOT_CHAIN
            for k, v in self._entries:
                chain = chain.child(k, v)
            self._chain = chain
        return chain

    def __reduce__(self):
        # Canonical pickle independent of representation: unpickles to
        # the dict form, never drags a live chain spine along.
        return (History, (self.length, dict(self._materialized())))

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def __call__(self, k: Instance) -> Value:
        """``h(k)``: the value at instance ``k``, or bottom.

        The chain form walks the shared spine from its tip (its own last
        instance is O(1)); only the dict form holds a lookup table.
        """
        lookup = self._lookup
        if lookup is not None:
            return lookup.get(k, BOTTOM)
        if not 1 <= k <= self.length:
            return BOTTOM
        link = self._chain.prefix(k)
        return link.value if link.anchor == k else BOTTOM

    def value_at(self, k: Instance) -> Value:
        return self(k)

    def includes(self, k: Instance) -> bool:
        """The paper's "history ``h`` includes instance ``k``": h(k) != ⊥."""
        lookup = self._lookup
        if lookup is not None:
            return k in lookup
        return 1 <= k <= self.length and self._chain.prefix(k).anchor == k

    @property
    def included_instances(self) -> tuple[Instance, ...]:
        """Instances with non-bottom values, ascending."""
        return tuple(k for k, _ in self._materialized())

    def items(self) -> Iterator[tuple[Instance, Value]]:
        """(instance, value) pairs for the non-bottom entries, ascending."""
        return iter(self._materialized())

    def __len__(self) -> int:
        """Number of *included* (non-bottom) instances."""
        chain = self._chain
        if chain is not None:
            return chain.depth
        return len(self._entries)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, History):
            return NotImplemented
        if self.length != other.length:
            return False
        a, b = self._chain, other._chain
        if a is not None and a is b:
            return True  # shared spine: equal without materialising
        # Identity is only a *positive* witness: interning keys are
        # type-exact while value equality is not (True == 1), so
        # distinct spines can still hold equal entries.
        return self._materialized() == other._materialized()

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = self._hash = hash((self.length, self._materialized()))
        return h

    def __repr__(self) -> str:
        body = ", ".join(f"{k}:{v!r}" for k, v in self._materialized())
        return f"History(len={self.length}, {{{body}}})"

    # ------------------------------------------------------------------
    # Prefix algebra (used by the Agreement checker)
    # ------------------------------------------------------------------

    def prefix(self, k: Instance) -> "History":
        """The restriction of this history to instances ``1..k``.

        Derived from the shared chain: the prefix *shares* the fold below
        the cut instead of re-sorting a fresh dict per call.
        """
        k = min(k, self.length)
        if k < 0:  # mirror the seed derivation's constructor validation
            raise ValueError("history length must be non-negative")
        return History._from_chain(k, self._as_chain().prefix(k))

    def prefix_reference(self, k: Instance) -> "History":
        """The seed prefix derivation (fresh dict + sort), kept as the
        executable specification of :meth:`prefix`."""
        k = min(k, self.length)
        return History(k, {i: v for i, v in self._materialized() if i <= k})

    def agrees_with(self, other: "History") -> bool:
        """The Agreement relation: equal on ``1..min(length, other.length)``.

        This is exactly the paper's requirement for a pair of outputs
        ``h_{i,k1}`` and ``h_{j,k2}`` with ``k1 <= k2``.  Identical
        pruned spines (the common case on a converged run: every output
        extends the same interned chain) decide it in O(links above the
        cut); distinct spines fall back to comparing the restricted
        entry tuples, because interning keys are type-exact while value
        equality is not.
        """
        cut = min(self.length, other.length)
        a = self._as_chain().prefix(cut)
        b = other._as_chain().prefix(cut)
        if a is b:
            return True
        return (tuple(e for e in self._materialized() if e[0] <= cut)
                == tuple(e for e in other._materialized() if e[0] <= cut))

    def agrees_with_reference(self, other: "History") -> bool:
        """The seed Agreement derivation (prefix rebuild + compare)."""
        cut = min(self.length, other.length)
        return self.prefix_reference(cut) == other.prefix_reference(cut)

    def extends(self, other: "History") -> bool:
        """True when ``other`` is a prefix of this history."""
        return self.length >= other.length and self.agrees_with(other)

    def last_included(self) -> Instance | None:
        """The largest included instance, or ``None`` if all-bottom."""
        chain = self._chain
        if chain is not None:
            return chain.anchor if chain.depth else None
        if not self._entries:
            return None
        return self._entries[-1][0]


EMPTY_HISTORY = History(0, {})
