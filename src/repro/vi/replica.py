"""The emulator replica: one virtual node emulated on one device.

A :class:`ReplicaRuntime` exists only while its device is *active* in the
emulation (it has completed the join protocol, or was present at
deployment).  It embeds a checkpoint core
(:func:`~repro.core.cha.build_core`, dict or slotted per ``switches``)
whose reducer is the virtual-node program's transition function — so the
CHA checkpoint *is* the virtual node's state — and drives it through the
eleven-phase structure of :mod:`repro.vi.phases`.

Alignment invariant: CHA instance ``k`` decides virtual round ``k - 1``
(instances are 1-based, virtual rounds 0-based).  At the CLIENT phase of
virtual round ``vr`` an active replica's core satisfies ``core.k == vr``.

The core is driven through the step surface
:class:`~repro.core.cha.CHAProcess` uses (``step_begin`` / ``propose``,
``step_ballot``, ``veto_due`` / ``veto_payload``, ``step_veto1``,
``step_end``), on the emulation's grid.  A replica's core is never in a
cohort, so no step needs ``detach``.

Externally visible actions are gated on green (Section 3.3): a replica
offers a VN-phase broadcast only when its most recent instance was green,
so a message computed from a chain that later loses the agreement can
never be delivered as the virtual node's word.  (During stable operation
every instance is green and the virtual node speaks every round.)
"""

from __future__ import annotations

from typing import Any

from ..core.ballot import BallotPayload, VetoPayload, canonical_key
from ..core.cha import build_core
from ..switches import Switches
from ..types import BOTTOM, Color, Instance, VirtualRound
from .payloads import AlivePing, ClientMsg, JoinAck, JoinRequest, VNMsg
from .phases import Phase, PhasePosition
from .program import VNProgram, VirtualObservation
from .schedule import Schedule, VNSite


def observation_from_value(value: Any) -> VirtualObservation:
    """Decode an agreed proposal value into the VN's observation.

    ``BOTTOM`` (an undecided instance) becomes the bare collision of
    Section 3.3.
    """
    if value is BOTTOM:
        return VirtualObservation.unknown()
    messages, collision, _vn_sent = value
    return VirtualObservation(tuple(messages), collision)


class ReplicaRuntime:
    """Emulates virtual node ``site.vn_id`` on a single device."""

    def __init__(self, site: VNSite, program: VNProgram, schedule: Schedule,
                 *, snapshot: dict | None = None,
                 reset_at: Instance | None = None,
                 switches: Switches | None = None,
                 pool_payloads: bool = False) -> None:
        self.site = site
        self.program = program
        self.schedule = schedule
        self.tag = ("vn", site.vn_id)
        #: Pool VI wire payloads (and the core's ballot/veto payloads)
        #: across virtual rounds.  Trace-free runs only: receivers
        #: extract values and never retain the payload objects.
        self.pool_payloads = pool_payloads
        self._pooled_vn_msg: VNMsg | None = None
        self.core = build_core(
            propose=self._propose, reducer=self._reduce,
            initial_state=program.init_state(), tag=self.tag,
            switches=switches, pool_payloads=pool_payloads)
        if snapshot is not None and reset_at is not None:
            raise ValueError("pass either a snapshot or a reset anchor, not both")
        if snapshot is not None:
            self.core.restore(snapshot)
        elif reset_at is not None:
            self.core.reset_to(reset_at, program.init_state())
        #: Per-virtual-round outcome colours (availability metric).
        self.round_colors: dict[VirtualRound, Color] = {}
        self._reset_scratch()

    # ------------------------------------------------------------------
    # Virtual-node state derivation
    # ------------------------------------------------------------------

    def _reduce(self, state, k, value):
        return self.program.step(state, k - 1, observation_from_value(value))

    def vn_state(self) -> Any:
        """The virtual node's state after all instances this chain covers."""
        out = self.core.current_checkpoint_output()
        state = out.checkpoint_state
        for k in range(self.core.checkpoint_instance + 1, self.core.k + 1):
            state = self._reduce(state, k, out.suffix(k))
        return state

    def vn_message(self, vr: VirtualRound) -> Any | None:
        """The message the virtual node would broadcast in round ``vr``.

        ``None`` unless the replica's view is *known agreed*: either no
        round has completed yet (the deployment state is agreed by
        definition) or the last instance was green.
        """
        if self.core.k != vr:
            return None  # stale or misaligned: never speak for the VN
        if vr > self.core.checkpoint_instance and \
                self.core.color_of(self.core.k) is not Color.GREEN:
            return None
        return self.program.emit(self.vn_state(), vr)

    # ------------------------------------------------------------------
    # Proposal assembly
    # ------------------------------------------------------------------

    def _reset_scratch(self) -> None:
        self._obs: list[Any] = []
        self._obs_collision = False
        self._vn_sent = False
        self._emitting: Any | None = None
        self._join_activity = False

    def _propose(self, k: Instance):
        messages = tuple(sorted(self._obs, key=canonical_key))
        return (messages, self._obs_collision, self._vn_sent)

    # ------------------------------------------------------------------
    # Phase handlers (called by the owning device)
    # ------------------------------------------------------------------

    def _make_vn_msg(self, vn: int, vr: VirtualRound, message: Any) -> VNMsg:
        if not self.pool_payloads:
            return VNMsg(vn, vr, message)
        msg = self._pooled_vn_msg
        if msg is None:
            msg = self._pooled_vn_msg = VNMsg(vn, vr, message)
        else:
            object.__setattr__(msg, "virtual_round", vr)
            object.__setattr__(msg, "payload", message)
        return msg

    def send_for(self, pos: PhasePosition, active: bool) -> Any | None:
        vn = self.site.vn_id
        vr = pos.virtual_round
        scheduled = self.schedule.is_scheduled(vn, vr)
        phase = pos.phase

        if phase is Phase.CLIENT:
            self._reset_scratch()
            return None

        if phase is Phase.VN:
            message = self.vn_message(vr)
            if message is None:
                return None
            # Scheduled VN: only the contention-manager leader speaks.
            # Unscheduled VN choosing to ignore its schedule: every
            # replica speaks (the paper's counterintuitive rule) —
            # the resulting virtual collision is the honest outcome.
            if scheduled and not active:
                return None
            self._vn_sent = True
            self._emitting = message
            return self._make_vn_msg(vn, vr, message)

        if phase is Phase.SCHED_BALLOT:
            return self._begin(active) if scheduled else None

        if phase is Phase.SCHED_VETO1:
            return self._veto(1) if scheduled else None

        if phase is Phase.SCHED_VETO2:
            return self._veto(2) if scheduled else None

        if phase is Phase.UNSCHED_BALLOT:
            if scheduled or pos.slot != self.schedule.slot_of(vn):
                return None
            return self._begin(active)

        if phase is Phase.UNSCHED_VETO1:
            return None if scheduled else self._veto(1)

        if phase is Phase.UNSCHED_VETO2:
            return None if scheduled else self._veto(2)

        if phase is Phase.JOIN_ACK:
            # Conditions of Section 4.3: already joined (we exist), join
            # activity detected, contention-manager active, VN scheduled.
            if scheduled and active and self._join_activity:
                return JoinAck(vn, vr, self.core.snapshot())
            return None

        if phase is Phase.RESET:
            if self._join_activity:
                return AlivePing(vn, vr)
            return None

        return None

    def deliver_for(self, pos: PhasePosition, payloads: list[Any],
                    collision: bool) -> None:
        vn = self.site.vn_id
        vr = pos.virtual_round
        scheduled = self.schedule.is_scheduled(vn, vr)
        phase = pos.phase

        if phase is Phase.CLIENT:
            for p in payloads:
                if isinstance(p, ClientMsg):
                    self._obs.append(("cl", p.payload))
            self._obs_collision = self._obs_collision or collision
            return

        if phase is Phase.VN:
            for p in payloads:
                if isinstance(p, VNMsg):
                    if p.vn_id == vn:
                        self._vn_sent = True
                    else:
                        self._obs.append(("vn", p.vn_id, p.payload))
            self._obs_collision = self._obs_collision or collision
            return

        if phase is Phase.SCHED_BALLOT and scheduled:
            self._on_ballot(payloads, collision)
            return
        if phase is Phase.SCHED_VETO1 and scheduled:
            self._on_veto(payloads, collision, which=1)
            return
        if phase is Phase.SCHED_VETO2 and scheduled:
            self._on_veto(payloads, collision, which=2, vr=vr)
            return

        if phase is Phase.UNSCHED_BALLOT and not scheduled:
            if pos.slot == self.schedule.slot_of(vn):
                self._on_ballot(payloads, collision)
            return
        if phase is Phase.UNSCHED_VETO1 and not scheduled:
            self._on_veto(payloads, collision, which=1)
            return
        if phase is Phase.UNSCHED_VETO2 and not scheduled:
            self._on_veto(payloads, collision, which=2, vr=vr)
            return

        if phase is Phase.JOIN:
            saw_request = any(
                isinstance(p, JoinRequest) and p.vn_id == vn for p in payloads
            )
            if saw_request or collision:
                self._join_activity = True
            return

        if phase is Phase.JOIN_ACK:
            if collision:
                self._join_activity = True
            return

    # -- CHA plumbing -----------------------------------------------------

    def _begin(self, active: bool) -> BallotPayload | None:
        """Start the next instance; the ballot iff advised to send."""
        core = self.core
        value = core.propose(core.step_begin())
        return core.ballot_payload(value) if active else None

    def _veto(self, phase: int) -> VetoPayload | None:
        """The veto payload for veto phase ``phase``, iff one is due."""
        core = self.core
        return core.veto_payload(phase) if core.veto_due(phase) else None

    def _on_ballot(self, payloads, collision) -> None:
        ballots = [
            p.ballot for p in payloads
            if isinstance(p, BallotPayload)
            and p.tag == self.tag and p.instance == self.core.k
        ]
        self.core.step_ballot(ballots, collision)

    def _on_veto(self, payloads, collision, *, which: int,
                 vr: VirtualRound | None = None) -> None:
        if not self.core.has_instance():
            # Pre-instance veto phase (e.g. right after a reset
            # re-anchored the core): inert until the next ballot phase
            # begins an instance.
            return
        # Tag-only filtering: the tag is per virtual node, and replicas
        # of one VN move through the phase grid in lockstep, so the
        # instance field carries no extra information here.
        veto = any(
            isinstance(p, VetoPayload) and p.tag == self.tag for p in payloads
        )
        if which == 1:
            self.core.step_veto1(veto, collision)
        else:
            self.core.step_end(veto, collision)
            if vr is not None:
                self.round_colors[vr] = self.core.color_of(self.core.k)
