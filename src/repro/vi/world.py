"""The virtual-infrastructure world: deployment + execution harness.

:class:`VIWorld` assembles everything Section 4 needs — sites, programs,
the broadcast schedule, one regional contention manager per virtual node,
the radio simulator — and runs the emulation by whole virtual rounds,
recording per-virtual-node outcome colours for the availability and
consistency experiments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..contention import RegionalCM
from ..detectors import CollisionDetector
from ..errors import ConfigurationError
from ..geometry import Point
from ..switches import Switches
from ..net import (
    Adversary,
    CrashSchedule,
    MobilityModel,
    RadioSpec,
    Simulator,
)
from ..types import Color, NodeId, VirtualRound
from .client import ClientProgram
from .device import VIDevice
from .engine import VIRoundEngine
from .phases import PhaseClock
from .program import VNProgram
from .schedule import (
    Schedule,
    SiteIndex,
    VNSite,
    build_schedule,
    verify_schedule,
)


@dataclass
class VNRoundOutcome:
    """What happened to one virtual node in one virtual round."""

    virtual_round: VirtualRound
    #: Colour per replica device that finished the round's instance.
    colors: dict[NodeId, Color] = field(default_factory=dict)

    @property
    def live(self) -> bool:
        """The round made externally-visible progress: someone went green."""
        return any(c is Color.GREEN for c in self.colors.values())

    @property
    def emulated(self) -> bool:
        """At least one replica ran the round's agreement instance."""
        return bool(self.colors)


def _not_yet_located() -> Point:
    """A device's locator until the simulator has given it a node id:
    the location service has never seen it (its ``KeyError`` contract)."""
    raise KeyError("device is not registered with the simulator yet")


class VIWorld:
    """Builds and drives one virtual-infrastructure deployment."""

    def __init__(self, sites: list[VNSite], programs: dict[int, VNProgram],
                 *, r1: float = 1.0, r2: float = 1.5, rcf: int = 0,
                 adversary: Adversary | None = None,
                 detector: CollisionDetector | None = None,
                 crashes: CrashSchedule | None = None,
                 cm_stable_round: int = 0,
                 min_schedule_length: int = 1,
                 schedule: Schedule | None = None,
                 switches: Switches = Switches()) -> None:
        if set(programs) != {site.vn_id for site in sites}:
            raise ConfigurationError(
                "programs must be keyed exactly by the site vn_ids"
            )
        self.sites = list(sites)
        self.programs = dict(programs)
        #: Handed on untouched to the simulator and every device; this
        #: world itself reads ``vi``, which pins
        #: :meth:`run_virtual_rounds` to the seed per-device dispatch
        #: (one ``sim.step()`` per real round) instead of the
        #: phase-table engine (:mod:`repro.vi.engine`).
        self.switches = switches
        self.region_radius = r1 / 4.0
        #: Built once, shared by every device (sites never move).
        self.site_index = SiteIndex(self.sites, self.region_radius)
        if schedule is None:
            schedule = build_schedule(sites, r1=r1, r2=r2,
                                      min_length=min_schedule_length)
        verify_schedule(schedule, sites, r1=r1, r2=r2)
        self.schedule = schedule
        self.clock = PhaseClock(schedule.length)
        # Inject schedule hints: programs may gate their emissions on
        # their own slot (see ScheduleAware) so that multi-replica
        # broadcasts of unscheduled nodes do not self-collide.
        for vn_id, program in self.programs.items():
            program.schedule_slot = schedule.slot_of(vn_id)
            program.schedule_period = schedule.length
        self.sim = Simulator(
            spec=RadioSpec(r1=r1, r2=r2, rcf=rcf),
            adversary=adversary,
            detector=detector,
            crashes=crashes,
            switches=switches,
        )
        locations, nodes = self.sim.locations, self.sim._nodes
        for site in sites:
            self.sim.add_cm(f"vn{site.vn_id}", RegionalCM(
                location=site.location,
                region_radius=self.region_radius,
                locate=locations.locate,
                max_speed=lambda node: nodes[node].mobility.max_speed(),
                located_at=lambda: locations.snapshot_round,
                stable_round=cm_stable_round,
            ))
        self.devices: dict[NodeId, VIDevice] = {}
        #: Shared role-change counter (bumped by device housekeeping and
        #: :meth:`add_device`); the phase-table engine reuses a table
        #: across virtual rounds while it holds still.
        self.role_version: list[int] = [0]
        self.outcomes: dict[int, list[VNRoundOutcome]] = {
            site.vn_id: [] for site in sites
        }
        self._virtual_rounds_run = 0
        self._engine = VIRoundEngine(self)

    # ------------------------------------------------------------------
    # Deployment
    # ------------------------------------------------------------------

    def add_device(self, mobility: MobilityModel | Point, *,
                   client: ClientProgram | None = None,
                   start_round: int = 0,
                   initially_active: bool | None = None) -> NodeId:
        """Register a device.

        ``initially_active`` defaults to True for devices present from
        round 0 (the deployment bootstraps virtual nodes from whatever is
        in their regions) and False for late arrivals, which must join.
        """
        if initially_active is None:
            initially_active = start_round == 0
        device = VIDevice(
            sites=self.site_index,
            programs=self.programs,
            schedule=self.schedule,
            clock=self.clock,
            region_radius=self.region_radius,
            locate=_not_yet_located,
            client=client,
            initially_active=initially_active,
            switches=self.switches,
            role_version=self.role_version,
        )
        node_id = self.sim.add_node(device, mobility, start_round=start_round)
        device._locate = self.sim.locations.locator_for(node_id)
        self.devices[node_id] = device
        self.role_version[0] += 1
        return node_id

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run_virtual_rounds(self, count: int) -> None:
        """Run ``count`` whole virtual rounds, recording outcomes."""
        for _ in range(count):
            vr = self._virtual_rounds_run
            if self.switches.vi:
                for _ in range(self.clock.rounds_per_virtual_round):
                    self.sim.step()
            else:
                self._engine.run_virtual_round(vr)
            self._record_outcomes(vr)
            self._virtual_rounds_run += 1

    def _record_outcomes(self, vr: VirtualRound) -> None:
        # One pass over the devices, bucketed by virtual node (devices
        # iterate in node order, so each outcome's colour dict keeps the
        # same insertion order a per-site scan would produce).
        colors_by_vn: dict[int, dict[NodeId, Color]] = {}
        for node_id, device in self.devices.items():
            replica = device.replica
            if replica is None:
                continue
            color = replica.round_colors.get(vr)
            if color is not None:
                colors_by_vn.setdefault(
                    replica.site.vn_id, {})[node_id] = color
        for site in self.sites:
            colors = colors_by_vn.get(site.vn_id)
            outcome = (VNRoundOutcome(virtual_round=vr) if colors is None
                       else VNRoundOutcome(virtual_round=vr, colors=colors))
            self.outcomes[site.vn_id].append(outcome)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def virtual_rounds_run(self) -> int:
        return self._virtual_rounds_run

    def replicas_of(self, vn_id: int) -> dict[NodeId, Any]:
        """Current active replica runtimes emulating ``vn_id``."""
        return {
            node_id: device.replica
            for node_id, device in self.devices.items()
            if device.replica is not None
            and device.replica.site.vn_id == vn_id
            and self.sim.alive(node_id)
        }

    def vn_states(self, vn_id: int) -> dict[NodeId, Any]:
        """Virtual-node state as derived by each active replica."""
        return {
            node_id: replica.vn_state()
            for node_id, replica in self.replicas_of(vn_id).items()
        }

    def availability(self, vn_id: int) -> float:
        """Fraction of executed virtual rounds in which ``vn_id`` was live."""
        outcomes = self.outcomes[vn_id]
        if not outcomes:
            return 0.0
        return sum(o.live for o in outcomes) / len(outcomes)

    def emulation_gaps(self, vn_id: int) -> int:
        """Virtual rounds in which nobody emulated the node at all."""
        return sum(not o.emulated for o in self.outcomes[vn_id])

    def check_replica_consistency(self, vn_id: int) -> None:
        """Assert all replicas with the same checkpoint agree on VN state.

        Replicas whose checkpoints are at the same instance must hold
        identical folded states (CHA agreement + deterministic program).
        Raises ``AssertionError`` with context on violation.
        """
        by_checkpoint: dict[int, set] = {}
        for node_id, replica in self.replicas_of(vn_id).items():
            out = replica.core.current_checkpoint_output()
            by_checkpoint.setdefault(out.checkpoint_instance, set()).add(
                (out.checkpoint_state,)
            )
        for anchor, states in by_checkpoint.items():
            assert len(states) == 1, (
                f"vn {vn_id}: replicas at checkpoint {anchor} disagree: {states}"
            )
