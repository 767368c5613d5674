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

The core phases (:meth:`ReplicaRuntime.core_phase`) run one machine
over runs of replicas: :func:`~repro.core.cha.send_runs` sends and
:meth:`ReplicaRuntime._step_group` delivers.  All replicas of one
program fold with one reducer (:func:`_fold`), so the phase-table engine
can put a site's deployed replicas on one cohort store, stepped once per
phase (:class:`ReplicaCohort`); a lone ``send_for`` / ``deliver_for`` is
the machine over a run of one, after ``core.detach()``.

Externally visible actions are gated on green (Section 3.3): a replica
offers a VN-phase broadcast only when its most recent instance was green,
so a message computed from a chain that later loses the agreement can
never be delivered as the virtual node's word.  (During stable operation
every instance is green and the virtual node speaks every round.)
"""

from __future__ import annotations

from types import MethodType
from typing import Any

from ..core.ballot import BallotPayload, VetoPayload, canonical_key
from ..core.cha import CHAProcess, SplitRuns, build_core, send_runs
from ..switches import Switches
from ..types import BOTTOM, Color, Instance, VirtualRound
from .payloads import AlivePing, ClientMsg, JoinAck, JoinRequest, VNMsg
from .phases import Phase, PhasePosition
from .program import VNProgram, VirtualObservation
from .schedule import Schedule, VNSite

#: A lone step's node ids: the replica's placeholder, and its advice.
_ALONE = (0,)

#: The CHA phases (ballot, veto-1, veto-2) of a scheduled and of an
#: unscheduled virtual node's instance.
_CHA_PHASES = ((Phase.SCHED_BALLOT, Phase.SCHED_VETO1, Phase.SCHED_VETO2),
               (Phase.UNSCHED_BALLOT, Phase.UNSCHED_VETO1,
                Phase.UNSCHED_VETO2))


def observation_from_value(value: Any) -> VirtualObservation:
    """Decode an agreed proposal value into the VN's observation.

    ``BOTTOM`` (an undecided instance) becomes the bare collision of
    Section 3.3.
    """
    if value is BOTTOM:
        return VirtualObservation.unknown()
    messages, collision, _vn_sent = value
    return VirtualObservation(tuple(messages), collision)


def _fold(program: VNProgram, state: Any, k: Instance, value: Any) -> Any:
    """The checkpoint reducer (instance ``k`` decides virtual round
    ``k - 1``), bound to the program: its replicas' reducers are equal."""
    return program.step(state, k - 1, observation_from_value(value))


class ReplicaRuntime:
    """Emulates virtual node ``site.vn_id`` on a single device."""

    def __init__(self, site: VNSite, program: VNProgram, schedule: Schedule,
                 *, snapshot: dict | None = None,
                 reset_at: Instance | None = None,
                 switches: Switches = Switches()) -> None:
        self.site = site
        self.program = program
        self.schedule = schedule
        self.tag = ("vn", site.vn_id)
        self._reduce = MethodType(_fold, program)
        self.core = build_core(
            propose=self._propose, reducer=self._reduce,
            initial_state=program.init_state(), tag=self.tag,
            switches=switches)
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

    def vn_state(self) -> Any:
        """The virtual node's state after all instances this chain covers."""
        core = self.core
        if core.checkpoint_instance == core.k:
            return core.checkpoint_state  # an empty suffix folds nothing
        out = core.current_checkpoint_output()
        state = out.checkpoint_state
        for k in range(core.checkpoint_instance + 1, core.k + 1):
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
        self._join_activity = False

    def _propose(self, k: Instance):
        messages = tuple(sorted(self._obs, key=canonical_key))
        return (messages, self._obs_collision, self._vn_sent)

    # ------------------------------------------------------------------
    # Phase handlers (called by the owning device)
    # ------------------------------------------------------------------

    def core_phase(self, pos: PhasePosition) -> int | None:
        """The CHA phase this replica's core is in at ``pos`` (0 ballot,
        1 veto-1, 2 veto-2), or ``None`` where its core takes no step: a
        scheduled node's instance runs in the SCHED phases, an
        unscheduled one's in its colour's ballot slot and the UNSCHED
        veto phases."""
        vn = self.site.vn_id
        scheduled = self.schedule.is_scheduled(vn, pos.virtual_round)
        phases = _CHA_PHASES[not scheduled]
        if pos.phase not in phases:
            return None
        cha = phases.index(pos.phase)
        if cha or scheduled or pos.slot == self.schedule.slot_of(vn):
            return cha
        return None

    def send_for(self, pos: PhasePosition, active: bool) -> Any | None:
        vn = self.site.vn_id
        vr = pos.virtual_round
        scheduled = self.schedule.is_scheduled(vn, vr)
        phase = pos.phase

        if phase is Phase.CLIENT:
            self._reset_scratch()
            return None

        if phase is Phase.VN:
            # Scheduled VN: only the contention-manager leader speaks.
            # Unscheduled VN choosing to ignore its schedule: every
            # replica speaks (the paper's counterintuitive rule) —
            # the resulting virtual collision is the honest outcome.
            # Each speaker derives its own message object.
            if scheduled and not active:
                return None
            message = self.vn_message(vr)
            if message is None:
                return None
            self._vn_sent = True
            return VNMsg(vn, vr, message)

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

        cha = self.core_phase(pos)
        if cha is None:
            return None
        self.core.detach()  # a lone step leaves a shared store
        out = send_runs(pos, cha, (((self,), _ALONE, True, None),),
                        _ALONE if active else ())
        return out[0][1] if out else None

    #: This replica's ballot-phase payload (what ``send_runs`` sends).
    _ballot_payload = CHAProcess._ballot_payload

    def deliver_for(self, pos: PhasePosition, payloads: list[Any],
                    collision: bool) -> None:
        vn = self.site.vn_id
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

        cha = self.core_phase(pos)
        if cha is not None:
            self.core.detach()  # a lone step, as in send_for
            self._step_group(cha, pos.virtual_round, (self,),
                             self._heard(cha, payloads), collision)

    # -- CHA plumbing -----------------------------------------------------

    def _heard(self, cha: int, payloads) -> Any:
        """What this replica's core hears in CHA phase ``cha``: the
        ballots for its instance, or whether a veto was heard."""
        tag = self.tag
        if cha == 0:
            k = self.core.k
            return [p.ballot for p in payloads
                    if isinstance(p, BallotPayload)
                    and p.tag == tag and p.instance == k]
        # Tag-only filtering: the tag is per virtual node, and replicas
        # of one VN move through the phase grid in lockstep, so the
        # instance field carries no extra information here.
        return any(isinstance(p, VetoPayload) and p.tag == tag
                   for p in payloads)

    def _step_group(self, cha: int, vr: VirtualRound, group, heard: Any,
                    collision: bool) -> None:
        """The deliver step of CHA phase ``cha`` for ``group``: this
        replica and every other on its core's store, all of which heard
        ``heard`` with flag ``collision``.  The store steps once; at
        veto-2 each member records the instance's colour."""
        core = self.core
        if cha == 0:
            core.step_ballot(heard, collision)
        elif core.has_instance():
            # (Pre-instance veto phases, e.g. right after a reset
            # re-anchored the core, are inert until the next ballot.)
            if cha == 1:
                core.step_veto1(heard, collision)
            else:
                core.step_end(heard, collision)
                color = core.color_of(core.k)
                for replica in group:
                    replica.round_colors[vr] = color


class ReplicaCohort:
    """Consecutive replicas of one site, stepped once per core phase.

    ``replicas`` (at ``nodes``, in node order) are the members of one
    cohort ``store`` and any of the site's replicas off it, each stepped
    alone in its place.  Before a step, a member that does not take part
    (gated out of sending, absent from the reception) or whose input is
    not the majority's (the ballots heard, by identity, as the store
    keeps the wire ballot; the veto bit; the flag) forks off for good.
    """

    __slots__ = ("replicas", "nodes", "_split")

    def __init__(self, replicas: list[ReplicaRuntime], nodes: tuple,
                 store: Any) -> None:
        self.replicas = replicas
        self.nodes = nodes
        self._split = SplitRuns(dict(zip(nodes, replicas)), store)

    def send(self, pos: PhasePosition, takers, advised) -> list[tuple]:
        """The send step of the members in ``takers`` (those allowed to
        send), as ``(node, payload)`` pairs in node order."""
        return send_runs(pos, self.replicas[0].core_phase(pos),
                         self._split(takers)[0], advised)

    def deliver(self, pos: PhasePosition, delivered, flags) -> None:
        """The deliver step of every member with a reception in
        ``delivered`` (its flag in ``flags``)."""
        cha = self.replicas[0].core_phase(pos)
        vr = pos.virtual_round
        takers = nodes = self.nodes
        for node in nodes:
            if node not in delivered:
                takers = [node for node in nodes if node in delivered]
                break
        shared, solo = self._split(takers)[1:]

        def heard(replica, node):  # a member's core input and flag
            return (replica._heard(cha, [m.payload for m in delivered[node]]),
                    flags[node])

        if shared:
            node = shared[0][1]
            first, flag = delivered[node], flags[node]
            # One message object per sender and round: equal receptions
            # hold the same objects (tuple equality tries identity first).
            if all(flags[n] == flag and delivered[n] == first
                   for _, n in shared):
                taken = heard(*shared[0])
            else:
                inputs = [heard(*pair) for pair in shared]
                keys = [(flag, tuple(map(id, h)) if cha == 0 else h)
                        for h, flag in inputs]
                best = max(keys, key=keys.count)
                for key, (replica, _) in zip(keys, shared):
                    if key != best:
                        replica.core.detach()
                taken = inputs[keys.index(best)]
                shared, solo = self._split(takers)[1:]
            shared[0][0]._step_group(cha, vr, [r for r, _ in shared], *taken)
        for replica, node in solo:
            replica._step_group(cha, vr, (replica,), *heard(replica, node))
