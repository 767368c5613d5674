"""GPS-style location service.

Section 2: "Each node receives periodic updates as to its location from a
GPS, or some other variety of location service."  We model this as a
service that snapshots true positions every ``update_period`` rounds, so a
node's believed position may be up to ``update_period - 1`` rounds stale.
``update_period=1`` gives the fresh-GPS idealisation used by most tests.
"""

from __future__ import annotations

from typing import Callable, Mapping

from ..errors import ConfigurationError
from ..geometry import Point
from ..types import NodeId, Round


class LocationService:
    """Provides (possibly stale) positions to protocol code."""

    def __init__(self, *, update_period: int = 1) -> None:
        if update_period < 1:
            raise ConfigurationError("update_period must be at least 1")
        self._period = update_period
        self._snapshot: dict[NodeId, Point] = {}
        self._snapshot_round: Round = -1

    def observe(self, r: Round, true_positions: Mapping[NodeId, Point]) -> None:
        """Called by the simulator each round with ground truth."""
        if self._snapshot_round < 0 or r - self._snapshot_round >= self._period:
            self._snapshot = dict(true_positions)
            self._snapshot_round = r
        else:
            # Between updates, newly appearing nodes still get a first fix:
            # a GPS fix exists from the moment a device powers on.
            for node, where in true_positions.items():
                self._snapshot.setdefault(node, where)

    def locate(self, node: NodeId) -> Point:
        """Last known position of ``node``.

        Raises ``KeyError`` when the service has never seen the node.
        """
        return self._snapshot[node]

    def locator_for(self, node: NodeId) -> Callable[[], Point]:
        """A zero-argument callable a protocol can own without knowing ids."""
        return lambda: self.locate(node)

    @property
    def snapshot_round(self) -> Round:
        """Round of the last full snapshot (a later arrival's fix is
        newer)."""
        return self._snapshot_round

    @property
    def staleness_bound(self) -> int:
        """Maximum rounds by which a reported position may lag the truth."""
        return self._period - 1
