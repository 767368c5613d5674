"""The physical device process: client + emulator + join state machine.

One :class:`VIDevice` is one mobile node of the underlying network.  Per
round it consults the phase clock and dispatches to up to three roles:

* a **client runtime** (if user code is installed) — broadcasts in CLIENT
  phases and observes CLIENT + VN phases;
* a **replica runtime** — when the device is inside some virtual node's
  emulation region (within ``R1/4`` of its home location) and has
  completed the join protocol (or was present at deployment);
* a **joiner state machine** — when the device is in-region but not yet
  active: JOIN request → JOIN_ACK adoption, or (on silence) the RESET
  probe and rebirth of Section 4.3.

Role changes (entering/leaving regions, activating a join) happen only at
virtual-round boundaries (the CLIENT phase), which keeps the CHA instance
alignment invariant trivial to maintain.
"""

from __future__ import annotations

import enum
from typing import Any, Callable

from ..geometry import Point
from ..net.messages import Message
from ..net.node import Process
from ..switches import Switches
from ..types import Round, VirtualRound
from .client import ClientProgram, ClientRuntime
from .payloads import AlivePing, ClientMsg, JoinAck, JoinRequest, VNMsg
from .phases import Phase, PhaseClock, PhasePosition
from .program import VNProgram
from .replica import ReplicaRuntime
from .schedule import Schedule, SiteIndex, VNSite


#: Shared empty decoded-payload sequence for silent rounds (read-only:
#: the replica/joiner/client observers only ever iterate payload lists).
_NO_PAYLOADS: tuple = ()


class JoinState(enum.Enum):
    IDLE = "idle"
    WANT_JOIN = "want-join"        # in-region, will request when scheduled
    AWAIT_ACK = "await-ack"        # request sent this virtual round
    AWAIT_RESET = "await-reset"    # ack silent; probing for life


class VIDevice(Process):
    """A mobile device participating in the virtual-infrastructure world."""

    def __init__(self, *, sites: list[VNSite] | SiteIndex,
                 programs: dict[int, VNProgram],
                 schedule: Schedule, clock: PhaseClock,
                 region_radius: float,
                 locate: Callable[[], Point],
                 client: ClientProgram | None = None,
                 initially_active: bool = False,
                 switches: Switches = Switches(),
                 role_version: list[int] | None = None) -> None:
        #: The deployment's sites by id and by place.  A world hands all
        #: its devices one index; a bare site list gets a private one.
        self.sites = (sites if isinstance(sites, SiteIndex)
                      else SiteIndex(sites, region_radius))
        self.programs = programs
        self.schedule = schedule
        self.clock = clock
        self.region_radius = region_radius
        #: Handed on untouched to every replica runtime this device
        #: builds (deployment, join, reset).
        self.switches = switches
        #: Shared counter box bumped whenever this device's table-visible
        #: roles (active replica, join target) change, so the phase-table
        #: engine can reuse a table across virtual rounds in steady state.
        self._role_version = role_version
        self._locate = locate
        #: ``(located Point, site)`` of the last region lookup: sites
        #: never move, so the same (immutable) Point has the same answer.
        self._located_site: tuple[Point | None, VNSite | None] = (None, None)
        self.client = ClientRuntime(client) if client is not None else None
        self.replica: ReplicaRuntime | None = None
        self._initially_active = initially_active
        self._join_state = JoinState.IDLE
        self._join_target: int | None = None
        self._pending_replica: ReplicaRuntime | None = None
        #: (virtual round, event) log for join/reset experiments.
        self.events: list[tuple[VirtualRound, str]] = []

    # ------------------------------------------------------------------
    # Region / role management (virtual-round boundaries)
    # ------------------------------------------------------------------

    def _nearest_site_in_region(self) -> VNSite | None:
        try:
            here = self._locate()
        except KeyError:
            return None
        if self._located_site[0] is not here:
            self._located_site = (here, self.sites.nearest_in_region(here))
        return self._located_site[1]

    def _boundary_housekeeping(self, vr: VirtualRound) -> None:
        roles_before = (self.replica, self._join_target)
        target = self._nearest_site_in_region()

        # Activate a join/reset decided at the end of the previous round.
        if self._pending_replica is not None:
            if target is not None and target.vn_id == self._pending_replica.site.vn_id:
                self.replica = self._pending_replica
                self.events.append((vr, f"active:{target.vn_id}"))
            self._pending_replica = None
            self._join_state = JoinState.IDLE
            self._join_target = None

        # Deployment-time activation: devices present in a region at the
        # first virtual round start as live replicas with fresh state.
        if vr == 0 and self._initially_active and target is not None \
                and self.replica is None:
            self.replica = ReplicaRuntime(
                target, self.programs[target.vn_id], self.schedule,
                switches=self.switches,
            )
            self.events.append((0, f"deployed:{target.vn_id}"))

        # Leaving a region tears the replica down (off any cohort store,
        # which holds no dead members).
        if self.replica is not None and (
                target is None or target.vn_id != self.replica.site.vn_id):
            self.events.append((vr, f"left:{self.replica.site.vn_id}"))
            self.replica.core.detach()
            self.replica = None

        # Entering a region starts (or retargets) the join protocol; being
        # active or out of all regions cancels any join in progress.
        if self.replica is None and target is not None:
            if self._join_target != target.vn_id:
                self._join_target = target.vn_id
                self._join_state = JoinState.WANT_JOIN
            elif self._join_state is not JoinState.IDLE:
                # A probe left hanging from last round restarts cleanly.
                self._join_state = JoinState.WANT_JOIN
        else:
            self._join_state = JoinState.IDLE
            self._join_target = None

        if self._role_version is not None and \
                (self.replica, self._join_target) != roles_before:
            self._role_version[0] += 1

    # ------------------------------------------------------------------
    # Process interface
    # ------------------------------------------------------------------

    def contend(self, r: Round) -> str | None:
        if self.replica is not None:
            return f"vn{self.replica.site.vn_id}"
        return None

    def send(self, r: Round, active: bool) -> Any | None:
        return self.send_at(self.clock.position(r), active)

    def send_at(self, pos: PhasePosition, active: bool) -> Any | None:
        """Send step with the phase position already resolved.

        The phase-table engine (:mod:`repro.vi.engine`) computes each
        round's position once for all devices and enters here; the
        per-device :meth:`send` entrypoint resolves it per call.
        """
        if pos.phase is Phase.CLIENT:
            self._boundary_housekeeping(pos.virtual_round)
            out = None
            if self.client is not None:
                payload = self.client.begin_virtual_round(pos.virtual_round)
                if payload is not None:
                    out = ClientMsg(pos.virtual_round, payload)
            if self.replica is not None:
                self.replica.send_for(pos, False)  # scratch reset only
            return out

        joiner_out = self._joiner_send(pos)
        if joiner_out is not None:
            return joiner_out
        if self.replica is not None:
            return self.replica.send_for(pos, active)
        return None

    def deliver(self, r: Round, messages: tuple[Message, ...],
                collision: bool) -> None:
        """Silent rounds (the common case away from a device's own phase
        slots) share one empty payload sequence instead of building a
        fresh list per receiver."""
        payloads = [m.payload for m in messages] if messages else _NO_PAYLOADS
        self.deliver_at(self.clock.position(r), payloads, collision)

    def deliver_at(self, pos: PhasePosition, payloads, collision: bool) -> None:
        """Deliver step with the phase position already resolved (the
        phase-table engine's entrypoint; see :meth:`send_at`)."""
        if self.client is not None:
            if pos.phase is Phase.CLIENT:
                self.client.observe_client_phase(
                    [p.payload for p in payloads if isinstance(p, ClientMsg)],
                    collision,
                )
            elif pos.phase is Phase.VN:
                self.client.observe_vn_phase(
                    [(p.vn_id, p.payload) for p in payloads if isinstance(p, VNMsg)],
                    collision,
                )
        if self.replica is not None:
            self.replica.deliver_for(pos, payloads, collision)
        else:
            self._joiner_deliver(pos, payloads, collision)

    # ------------------------------------------------------------------
    # Join state machine
    # ------------------------------------------------------------------

    def _target_scheduled(self, vr: VirtualRound) -> bool:
        return (self._join_target is not None
                and self.schedule.is_scheduled(self._join_target, vr))

    def _joiner_send(self, pos: PhasePosition) -> Any | None:
        if self.replica is not None or self._join_target is None:
            return None
        if pos.phase is Phase.JOIN and self._join_state is JoinState.WANT_JOIN \
                and self._target_scheduled(pos.virtual_round):
            self._join_state = JoinState.AWAIT_ACK
            self.events.append((pos.virtual_round, f"join-req:{self._join_target}"))
            return JoinRequest(self._join_target, pos.virtual_round)
        return None

    def _joiner_deliver(self, pos: PhasePosition, payloads: list[Any],
                        collision: bool) -> None:
        if self._join_target is None:
            return
        vn = self._join_target
        vr = pos.virtual_round

        if pos.phase is Phase.JOIN_ACK and self._join_state is JoinState.AWAIT_ACK:
            acks = [p for p in payloads if isinstance(p, JoinAck) and p.vn_id == vn]
            if acks:
                self._pending_replica = ReplicaRuntime(
                    self.sites[vn], self.programs[vn], self.schedule,
                    snapshot=acks[0].snapshot,
                    switches=self.switches,
                )
                self.events.append((vr, f"acked:{vn}"))
            elif collision:
                # Someone answered but it was lost: the node is alive.
                self._join_state = JoinState.WANT_JOIN
                self.events.append((vr, f"ack-collision:{vn}"))
            else:
                self._join_state = JoinState.AWAIT_RESET
            return

        if pos.phase is Phase.RESET and self._join_state is JoinState.AWAIT_RESET:
            alive = collision or any(
                isinstance(p, AlivePing) and p.vn_id == vn for p in payloads
            )
            if alive:
                self._join_state = JoinState.WANT_JOIN
                self.events.append((vr, f"reset-abort:{vn}"))
            else:
                # Total silence: the virtual node is dead.  Reinitialise it
                # ("beginning the emulation anew", Section 4.3), anchored
                # at the instance for the *next* virtual round.
                self._pending_replica = ReplicaRuntime(
                    self.sites[vn], self.programs[vn], self.schedule,
                    reset_at=vr + 1,
                    switches=self.switches,
                )
                self.events.append((vr, f"reset:{vn}"))
            return
