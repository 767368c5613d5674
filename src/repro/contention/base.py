"""Contention-manager interface (Property 3 and Section 4.2).

The paper deliberately decouples contention management from agreement:
the contention manager designates contenders as *active* (may broadcast)
or *passive*, and need only guarantee — eventually — that exactly one
correct contender is active in every round (leader election, Property 3).

The simulator drives contention managers in two steps per round: it first
collects, from every alive process, the name of the manager it contends
for (``Process.contend``), then asks each named manager for its advice.
After channel resolution it feeds back whether the round's broadcasts
collided, which realistic back-off managers use to adapt.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Sequence

from ..types import NodeId, Round


class ContentionManager(ABC):
    """Advises contenders whether to broadcast."""

    #: Through this round the last :meth:`advise` answer is one the
    #: manager would give again, writing no state, for the same
    #: contenders, however they move and whatever :meth:`feedback` says.
    #: At or past its own round the answer is also *settled*: given again
    #: for the same contenders and located positions, at any round.
    settled_through: Round | float = -1

    @abstractmethod
    def advise(self, r: Round, contenders: Sequence[NodeId]) -> frozenset[NodeId]:
        """The subset of ``contenders`` advised to be active in round ``r``.

        Property 3(3) — advice only goes to contenders — is enforced by
        the simulator, which intersects the result with ``contenders``;
        implementations should nevertheless respect it.
        """

    def feedback(self, r: Round, *, active: frozenset[NodeId],
                 collided: bool) -> None:
        """Post-round feedback: who was active and whether contention arose.

        Default is to ignore feedback (oracle managers are stateless in
        this respect); back-off managers override.
        """
