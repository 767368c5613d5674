"""The regional contention manager of Section 4.2.

Each virtual node ``v`` at location ``ℓ`` owns a regional manager that
reduces contention among nodes *near* ``ℓ`` and elects "temporary"
leaders: contenders expected to remain within the emulation region
(``R1/4`` of ``ℓ``) long enough to carry a whole virtual round — the
paper asks for ``2(s+10)`` rounds.  That tenure is realised by retention:
a sitting leader keeps office for as long as it stays in-region and
contending, however long that is.

This realisation consults the location service for contender positions
and prefers, among in-region contenders, the one closest to ``ℓ`` (a node
near the centre stays inside longest under the ``vmax`` bound); on loss
of the leader a new one is elected immediately.  Region membership is
role assignment's own predicate, :func:`~repro.geometry.in_region`.

Tenure under ``vmax``: a retained leader's answer holds for the same
contenders while it is located in region.  Located at distance ``d``
from ``ℓ`` in the snapshot of round ``t0``, at most ``v`` per round
(its model's ``max_speed()``), it is through round
``t0 + ⌊(ρ − d − ε) / (v + ε)⌋`` (forever at ``v`` = 0; ``ε`` covers
the rounding of ``hypot`` and of the models' steps), which
:attr:`RegionalCM.settled_through` reports.
"""

from __future__ import annotations

from math import floor, inf
from typing import Callable, Sequence

from ..errors import ConfigurationError
from ..geometry import Point, in_region
from ..types import NodeId, Round
from .base import ContentionManager


class RegionalCM(ContentionManager):
    """Location-aware leader election for one virtual-node region;
    tenure horizons need ``max_speed(node)`` and ``located_at()`` (the
    round of the snapshot ``locate`` answers from)."""

    def __init__(self, *, location: Point, region_radius: float,
                 locate: Callable[[NodeId], Point],
                 max_speed: Callable[[NodeId], float] | None = None,
                 located_at: Callable[[], Round] | None = None,
                 stable_round: Round = 0) -> None:
        if region_radius <= 0:
            raise ConfigurationError("region_radius must be positive")
        self.location = location
        self.region_radius = region_radius
        self._locate = locate
        self._max_speed = max_speed
        self._located_at = located_at
        # ε (module docstring), relative to the region's coordinates.
        self._eps = 1e-9 * (1 + region_radius
                            + abs(location.x) + abs(location.y))
        self.stable_round = stable_round
        self._leader: NodeId | None = None
        self._leader_set: frozenset[NodeId] = frozenset()
        self._elected_at: Round = -1
        #: The last region check, ``(located Point, verdict)``: a Point
        #: is immutable, so the same object gets the same verdict.
        self._checked: tuple[Point | None, bool] = (None, False)

    def _in_region(self, node: NodeId) -> bool:
        try:
            where = self._locate(node)
        except KeyError:
            return False
        if self._checked[0] is not where:
            self._checked = (where, in_region(self.location, where,
                                              self.region_radius))
        return self._checked[1]

    def advise(self, r: Round, contenders: Sequence[NodeId]) -> frozenset[NodeId]:
        # Sitting-leader rule: a leader that is still contending and
        # still in-region is retained regardless of the other contenders,
        # so their region checks are skipped.  The answer depends only on
        # the contenders and the leader's located position and writes no
        # state, so it holds through the leader's tenure horizon.
        leader = self._leader
        if leader is not None and r >= self.stable_round \
                and leader in contenders and self._in_region(leader):
            self.settled_through = self._tenure_end(leader, r)
            return self._leader_set
        self.settled_through = -1
        eligible = [node for node in sorted(contenders) if self._in_region(node)]
        if not eligible:
            self._leader = None
            return frozenset()
        if r < self.stable_round:
            # Pre-stability chaos: everyone eligible is let through,
            # modelling an unconverged back-off protocol.
            return frozenset(eligible)
        # Elect the contender nearest the virtual-node location; ties break
        # by node id for determinism.
        self._leader = min(
            eligible,
            key=lambda node: (self._locate(node).distance_to(self.location), node),
        )
        self._elected_at = r
        self._leader_set = frozenset({self._leader})
        return self._leader_set

    def _tenure_end(self, leader: NodeId, r: Round) -> Round | float:
        """Through when ``leader``, in region now, stays located in it."""
        if self._max_speed is None or self._located_at is None:
            return r
        speed = self._max_speed(leader)
        if speed == 0:
            return inf
        eps = self._eps
        d = self.location.distance_to(self._locate(leader))
        return max(r, self._located_at()
                   + floor((self.region_radius - d - eps) / (speed + eps)))

    @property
    def leader(self) -> NodeId | None:
        return self._leader

    def leader_age(self, r: Round) -> int:
        """Rounds the sitting leader has held office at round ``r``."""
        if self._leader is None:
            return 0
        return max(0, r - self._elected_at)
