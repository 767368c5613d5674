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
"""

from __future__ import annotations

from typing import Callable, Sequence

from ..errors import ConfigurationError
from ..geometry import Point, in_region
from ..types import NodeId, Round
from .base import ContentionManager


class RegionalCM(ContentionManager):
    """Location-aware leader election for one virtual-node region."""

    def __init__(self, *, location: Point, region_radius: float,
                 locate: Callable[[NodeId], Point],
                 stable_round: Round = 0) -> None:
        if region_radius <= 0:
            raise ConfigurationError("region_radius must be positive")
        self.location = location
        self.region_radius = region_radius
        self._locate = locate
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
        # the contenders and the located positions and writes no state,
        # which ``settled`` reports.
        leader = self._leader
        if leader is not None and r >= self.stable_round \
                and leader in contenders and self._in_region(leader):
            self.settled = True
            return self._leader_set
        self.settled = False
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

    @property
    def leader(self) -> NodeId | None:
        return self._leader

    def leader_age(self, r: Round) -> int:
        """Rounds the sitting leader has held office at round ``r``."""
        if self._leader is None:
            return 0
        return max(0, r - self._elected_at)
