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

from ..core.ballot import BallotPayload, VetoPayload
from ..core.cha import ChaCore, _NO_PAYLOADS
from ..net.messages import MIXED_TAGS, Message, RoundBatch
from ..net.node import Process
from ..switches import Switches
from ..types import Instance, Round, Value

#: Rounds per instance for the ablated protocol.
TWO_PHASE_ROUNDS = 2


class TwoPhaseChaProcess(Process):
    """CHAP minus veto-2.  Colours: red < orange < green (no yellow)."""

    def __init__(self, *, propose: Callable[[Instance], Value],
                 cm_name: str = "C", tag: Any = "2pc-cha",
                 switches: Switches | None = None,
                 pool_payloads: bool = False) -> None:
        switches = Switches.resolve(switches)
        if switches.core:
            self.core = ChaCore(propose=propose, tag=tag, switches=switches)
        else:
            from ..core.slotted import SlottedChaCore
            self.core = SlottedChaCore(
                propose=propose, tag=tag, switches=switches,
                pool_payloads=pool_payloads,
            )
        self.cm_name = cm_name
        #: The end-of-instance step (see ``CHAProcess._adopt_core``).
        self._end_instance = (self.core.finish_instance_single_veto
                              if switches.core
                              else self.core.end_instance_single_veto)

    def contend(self, r: Round) -> str | None:
        return self.cm_name

    def send(self, r: Round, active: bool) -> Any | None:
        if r % TWO_PHASE_ROUNDS == 0:
            return self.core.begin_instance_send(active)
        # Red nodes veto; no second chance.  Inert before the first
        # instance has begun (mid-grid power-up).
        return self.core.veto1_payload()

    def deliver(self, r: Round, messages: tuple[Message, ...],
                collision: bool) -> None:
        self.deliver_batch(r, messages, collision,
                           RoundBatch(dict(enumerate(messages))))

    def deliver_batch(self, r: Round, messages: tuple[Message, ...],
                      collision: bool, batch) -> None:
        """Delivery, with tag filtering amortised through the round
        batch as in :meth:`repro.core.cha.CHAProcess.deliver_batch`
        (:meth:`deliver` hands it a private one)."""
        core = self.core
        if not messages:
            mine = _NO_PAYLOADS
        else:
            tag = core.tag
            uniform = batch.uniform_tag()
            if uniform == tag:
                mine = [m.payload for m in messages]
            elif uniform is not MIXED_TAGS:
                mine = _NO_PAYLOADS
            else:
                mine = [m.payload for m in messages
                        if getattr(m.payload, "tag", None) == tag]
        if r % TWO_PHASE_ROUNDS == 0:
            ballots = [
                p.ballot for p in mine
                if isinstance(p, BallotPayload) and p.instance == core.k
            ]
            core.on_ballot_reception(ballots, collision)
            return
        if not core.has_instance():
            return  # pre-instance veto phase (mid-grid power-up): inert
        k = core.k
        veto = any(isinstance(p, VetoPayload) and p.instance == k
                   for p in mine)
        # Single veto phase: trouble demotes green straight to orange, and
        # the instance ends here.  Only green advances prev / outputs.
        core.on_veto1_reception(veto, collision)
        self._end_instance()

    @property
    def outputs(self):
        return self.core.outputs

    @property
    def proposals_made(self):
        return self.core.proposals_made

