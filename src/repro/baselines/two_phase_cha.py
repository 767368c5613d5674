"""Ablation A1: CHAP with the veto-2 phase removed.

The paper credits its safety to a three-phase, four-colour structure
inherited from three-phase commit.  This ablation keeps the ballot phase
and a *single* veto phase (three colours: red < orange < green, output on
green), i.e. the two-phase-commit shape.  It is cheaper — two rounds per
instance — and **unsafe**: a node can turn green while a peer that
experienced a (possibly spurious) collision in the same veto phase stays
orange without advancing its ``prev-instance`` pointer.  If the green
node then crashes and the orange node leads, the new chain skips the
decided instance and Agreement breaks.

The missing veto-2 phase is exactly what closes this window in CHAP: an
orange node broadcasts a second veto, forcing the would-be-green node
down to yellow.  Benchmark A1 constructs the violating schedule and
counts spec violations for both protocols.
"""

from __future__ import annotations

from typing import Any, Callable

from ..core.cha import CHAProcess
from ..switches import Switches
from ..types import Instance, Value

#: Rounds per instance for the ablated protocol.
TWO_PHASE_ROUNDS = 2


class TwoPhaseChaProcess(CHAProcess):
    """CHAP minus veto-2.  Colours: red < orange < green (no yellow).

    The CHAP phase machine on a two-round grid: its veto phase is
    veto-1's (red nodes veto, trouble demotes green to orange) and ends
    the instance."""

    rounds_per_instance = TWO_PHASE_ROUNDS
    single_veto = True

    def __init__(self, *, propose: Callable[[Instance], Value],
                 cm_name: str = "C", tag: Any = "2pc-cha",
                 switches: Switches = Switches()) -> None:
        super().__init__(propose=propose, cm_name=cm_name, tag=tag,
                         switches=switches)
