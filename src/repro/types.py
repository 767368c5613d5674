"""Common type aliases and constants shared across the reproduction.

The paper (Chockler, Gilbert, Lynch, PODC 2008) works in a slotted,
synchronous radio model.  Rounds, instances and virtual rounds are all
non-negative integers.  Proposal values live in a totally-ordered domain
``V``; we realise ``V`` as arbitrary hashable, orderable Python values
(strings and tuples of strings/ints in practice), with ``None`` reserved
to play the role of the paper's bottom symbol (written ``BOTTOM`` below).
"""

from __future__ import annotations

import enum
from typing import Hashable, TypeAlias

#: A communication round index (a slot of the synchronous channel).
Round: TypeAlias = int

#: A CHA agreement-instance index.  Instances are numbered from 1 in the
#: paper; instance 0 is a sentinel meaning "before the first instance".
Instance: TypeAlias = int

#: A virtual-round index of the emulated infrastructure.
VirtualRound: TypeAlias = int

#: A node identifier.  The *protocols* never rely on identifiers (the paper
#: stresses that participants need not have unique ids); simulators use ids
#: purely for bookkeeping, tracing and assertions.
NodeId: TypeAlias = int

#: A proposal value in the totally-ordered domain ``V``.
Value: TypeAlias = Hashable

#: Sentinel for the paper's bottom symbol.  We deliberately use ``None`` so
#: that "no value" round-trips naturally through Python containers.
BOTTOM = None


class Sentinel:
    """A unique marker whose identity survives pickling.

    Bare ``object()`` sentinels break every ``is`` check the moment they
    are pickled or deep-copied: each copy manufactures a fresh object, so
    state that travels to a sweep worker, or through any other
    serialisation, stops matching its module's singleton.  A ``Sentinel``
    instead pickles as a reference to the module-level name it is bound
    to, so every process resolves it back to the same object.
    """

    __slots__ = ("_module", "_name")

    def __init__(self, module: str, name: str) -> None:
        self._module = module
        self._name = name

    def __repr__(self) -> str:
        return f"<{self._name}>"

    def __reduce__(self) -> tuple:
        return (_resolve_sentinel, (self._module, self._name))


def _resolve_sentinel(module: str, name: str) -> Sentinel:
    import importlib

    return getattr(importlib.import_module(module), name)

#: The sentinel instance index used before any instance has completed.
NO_INSTANCE: Instance = 0


class Color(enum.IntEnum):
    """The CHAP status colours, ordered ``red < orange < yellow < green``.

    The colour a node assigns to an instance encodes its local knowledge of
    how widely the instance's ballot is known:

    * ``GREEN``  -- the node received a ballot and saw no veto or collision
      in either veto phase; it outputs a history for this instance.
    * ``YELLOW`` -- trouble appeared only in the veto-2 phase; the instance
      is still *good* (it advances ``prev_instance``) but the node outputs
      the bottom symbol.
    * ``ORANGE`` -- trouble appeared in the veto-1 phase; the instance is
      not good, output is bottom.
    * ``RED``    -- the ballot phase itself failed (no ballot received, or a
      collision was detected); output is bottom and the node may hold no
      ballot for the instance.

    ``IntEnum`` gives us the ``min``-based downgrade operations of Figure 1
    for free.
    """

    RED = 0
    ORANGE = 1
    YELLOW = 2
    GREEN = 3

    @property
    def is_good(self) -> bool:
        """A *good* instance advances the ``prev_instance`` pointer."""
        return self >= Color.YELLOW

    def shade_distance(self, other: "Color") -> int:
        """Number of shades separating two colours (Property 4 metric)."""
        return abs(int(self) - int(other))


#: Collision-notification symbol (the paper's ``±``).  Delivered by the
#: collision detector alongside (possibly zero) received messages.
COLLISION = "±"
