"""Message envelopes and wire-size accounting.

Theorem 14 of the paper claims every CHAP message is *constant size*,
"independent of n and the length of the execution" (with the footnote that
an array index — an instance pointer — counts as constant size).  To make
that claim measurable we attach a deterministic wire-size estimate to every
payload: experiment E2 plots this estimate for CHAP against the naive
full-history replicated-state-machine baseline.

Protocols must treat :attr:`Message.sender` as invisible: the paper's model
has anonymous nodes, and the simulator attaches sender ids purely so that
traces and assertions can refer to them.  The test-suite enforces this by
running protocols whose logic touches only :attr:`Message.payload`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass
from typing import Any

from ..types import NodeId, Sentinel

#: Size charged for an integer field.  The paper's footnote 3 ("we consider
#: an array index to be of constant size") licenses a fixed cost for
#: instance pointers regardless of magnitude.
INT_SIZE = 4

#: Size charged for a float field.
FLOAT_SIZE = 8

#: Per-container overhead (length prefix / tag byte).
CONTAINER_OVERHEAD = 2

#: Size of the bottom symbol / None.
NONE_SIZE = 1


#: ``type -> field names`` of every dataclass sized so far.  A class's
#: fields are fixed when it is defined, so they are derived on first sight
#: instead of per payload (every broadcast of a run is sized).
_FIELD_NAMES: dict[type, tuple[str, ...]] = {}

#: Sizes of the scalar types, by exact type.
_SCALAR_SIZES: dict[type, int] = {
    type(None): NONE_SIZE, bool: 1, int: INT_SIZE, float: FLOAT_SIZE}


def wire_size(payload: Any) -> int:
    """Deterministic wire-size estimate, in bytes, of a payload.

    The estimate is a simple recursive encoding model: fixed-size scalars,
    length-prefixed strings and containers, and dataclasses encoded as the
    tuple of their fields.  It is *not* a real serialiser; it exists so
    that "message size" is a well-defined, reproducible metric.
    The exact type is tried first; subclasses take the ``isinstance``
    chain.  Wire objects are immutable (frozen dataclasses, never
    mutated), so one payload object always has one size.
    """
    kind = type(payload)
    size = _SCALAR_SIZES.get(kind)
    if size is not None:
        return size
    if kind is str or kind is bytes:
        return CONTAINER_OVERHEAD + len(payload)
    if kind is tuple or kind is list:
        size = CONTAINER_OVERHEAD
        for item in payload:
            size += wire_size(item)
        return size
    names = _FIELD_NAMES.get(kind)
    if names is not None:
        # Only a type that fell through every branch of the chain is
        # ever tabled, and those branches test the type alone.
        size = CONTAINER_OVERHEAD
        for name in names:
            size += wire_size(getattr(payload, name))
        return size
    if isinstance(payload, bool):
        return 1
    if isinstance(payload, int):
        return INT_SIZE
    if isinstance(payload, float):
        return FLOAT_SIZE
    if isinstance(payload, (str, bytes)):
        return CONTAINER_OVERHEAD + len(payload)
    if isinstance(payload, (tuple, list, set, frozenset)):
        return CONTAINER_OVERHEAD + sum(wire_size(item) for item in payload)
    if isinstance(payload, dict):
        return CONTAINER_OVERHEAD + sum(
            wire_size(k) + wire_size(v) for k, v in payload.items()
        )
    if is_dataclass(payload) and not isinstance(payload, type):
        _FIELD_NAMES[kind] = tuple(f.name for f in fields(payload))
        return wire_size(payload)
    raise TypeError(f"wire_size: unsupported payload type {kind!r}")


@dataclass(frozen=True, slots=True)
class Message:
    """A broadcast message as it appears on the channel.

    ``sender`` is simulator bookkeeping only (nodes are anonymous in the
    model); protocol logic must consult only ``payload``.
    """

    sender: NodeId
    payload: Any

    @property
    def size(self) -> int:
        """Wire-size estimate of the payload (envelope not charged)."""
        return wire_size(self.payload)


#: Sentinel: the round batch has not classified its broadcasts yet.
_UNRESOLVED = Sentinel(__name__, "_UNRESOLVED")

#: Sentinel returned by :meth:`RoundBatch.uniform_tag` when the round's
#: broadcasts carry no single common ``tag`` (or there are none at all).
#: Distinct from any real tag, including ``None``-tagged payloads.
#: Pickle-stable so ``is MIXED_TAGS`` keeps working for any state that
#: is pickled or deep-copied.
MIXED_TAGS = Sentinel(__name__, "MIXED_TAGS")


class RoundBatch:
    """A shared, per-round decoded view of one round's broadcasts.

    The batched round engine builds one ``RoundBatch`` per round that
    reaches an ensemble (none for a sweep of plain processes) and hands
    it to every ensemble's
    :meth:`~repro.net.node.Ensemble.deliver_round`, so work that depends
    only on *what was broadcast* — not on who received it — happens once
    per round instead of once per receiving store.  All derived views are lazy:
    a round whose receivers never consult the batch pays one attribute
    store.  Batches are round-scoped; holding one past the round it was
    built for is a bug.
    """

    __slots__ = ("broadcasts", "_uniform_tag", "memo", "uniform")

    def __init__(self, broadcasts: "dict[NodeId, Message]") -> None:
        self.broadcasts = broadcasts
        self._uniform_tag: Any = _UNRESOLVED
        #: Set by the round engine: every receiver heard all of
        #: ``broadcasts`` with one flag (a round of one coverage class).
        self.uniform = False
        #: Free-form per-round scratch space for receivers.  Reception
        #: work that depends only on what was broadcast — not on who is
        #: receiving — is computed by the round's first receiver and
        #: shared by the rest (the CHA family memoises its decoded
        #: payload and ballot lists here, keyed by tag and instance).
        #: Round-scoped like the batch itself.
        self.memo: dict = {}

    def uniform_tag(self) -> Any:
        """The single ``tag`` attribute shared by every broadcast payload
        this round, or :data:`MIXED_TAGS`.

        Tag-multiplexed protocols (the CHA family, the emulation) filter
        every reception by their own tag; when the whole round is known
        to carry one tag, a receiver whose tag matches can skip the
        per-message ``getattr`` scan entirely and one whose tag differs
        can discard the reception wholesale.
        """
        tag = self._uniform_tag
        if tag is _UNRESOLVED:
            tag = MIXED_TAGS
            first = True
            for message in self.broadcasts.values():
                t = getattr(message.payload, "tag", MIXED_TAGS)
                if first:
                    tag = t
                    first = False
                elif t != tag:
                    tag = MIXED_TAGS
                    break
            self._uniform_tag = tag
        return tag
