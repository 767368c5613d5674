"""Online (per-round) metric accumulators.

These ride the :meth:`repro.net.Simulator.add_observer` hook: the
simulator hands each completed :class:`~repro.net.trace.RoundRecord` to
every observer as it is produced, so wire metrics cost O(1) extra memory
and are available even when the run does not retain its trace
(``ExperimentSpec(keep_trace=False)``, which sweeps use) — instead of
re-scanning the whole trace after the fact.
"""

from __future__ import annotations

from ..net.messages import wire_size
from ..net.trace import RoundRecord
from ..types import NodeId

#: No payload: the first broadcast of a round is always sized.
_UNSIZED = object()


class WireStatsObserver:
    """Accumulates the trace-level wire metrics online.

    A payload is sized only when it is not the previous broadcast's
    object: a veto round's equal payloads are one object
    (:func:`~repro.core.cha.send_runs`), and wire objects are immutable,
    so one object always has one size."""

    def __init__(self) -> None:
        self.rounds = 0
        self.total_broadcasts = 0
        self.max_message_size = 0
        self._size_sum = 0
        self.collision_flags: dict[NodeId, int] = {}

    def __call__(self, record: RoundRecord) -> None:
        self.rounds += 1
        self.total_broadcasts += len(record.broadcasts)
        last = _UNSIZED
        for message in record.broadcasts.values():
            if message.payload is not last:
                last = message.payload
                size = wire_size(last)
                if size > self.max_message_size:
                    self.max_message_size = size
            self._size_sum += size
        collisions = record.collisions
        if any(collisions.values()):  # most rounds raise no flag at all
            counts = self.collision_flags
            for node, flag in collisions.items():
                if flag:
                    counts[node] = counts.get(node, 0) + 1

    @property
    def mean_message_size(self) -> float:
        if self.total_broadcasts == 0:
            return 0.0
        return self._size_sum / self.total_broadcasts
