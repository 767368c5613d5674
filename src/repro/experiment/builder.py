"""Fluent construction of :class:`~repro.experiment.spec.ExperimentSpec`.

``scenario()`` opens a builder; each method returns the builder, so a
whole experiment reads as one chain::

    from repro import scenario

    result = (scenario()
              .nodes(6).instances(40)
              .adversary(RandomLossAdversary(p_drop=0.3, seed=1))
              .cha()
              .metrics("decided_instances", "max_message_size")
              .invariants("all")
              .run())

Deployed (virtual-infrastructure) worlds chain the same way::

    result = (scenario()
              .single_region(n_replicas=3)
              .program(0, CounterProgram())
              .client(Point(0.4, 0.0), ScriptedClient({...}), name="writer")
              .virtual_rounds(12)
              .metrics("availability")
              .run())

``build()`` validates and returns the inert spec; ``run()`` builds and
executes it in one step.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Iterable, Mapping

from ..contention import ContentionManager
from ..detectors import CollisionDetector
from ..errors import ConfigurationError
from ..geometry import Point
from ..net import Adversary, CrashSchedule, MobilityModel
from ..types import Instance, Round, Value
from ..vi.client import ClientProgram
from ..vi.program import VNProgram
from ..vi.schedule import VNSite
from .result import ExperimentResult
from .spec import (
    CHA,
    CheckpointCHA,
    ClusterWorld,
    DeployedWorld,
    DeviceSpec,
    EnvironmentSpec,
    ExperimentSpec,
    MajorityRSM,
    MetricsSpec,
    NaiveRSM,
    ProposerFactory,
    ProtocolSpec,
    ThreePhaseCommit,
    TwoPhaseCHA,
    VIEmulation,
    WorkloadSpec,
)


def scenario() -> "ScenarioBuilder":
    """Open a fresh :class:`ScenarioBuilder`."""
    return ScenarioBuilder()


class ScenarioBuilder:
    """Accumulates one experiment, then :meth:`build`\\ s or :meth:`run`\\ s it."""

    def __init__(self) -> None:
        self._n: int | None = None
        self._cluster_radius: float | None = None
        self._sites: list[VNSite] | None = None
        self._devices: list[DeviceSpec] = []
        self._programs: dict[int, VNProgram] = {}
        self._r1, self._r2, self._rcf = 1.0, 1.5, 0
        self._cm_stable_round: Round = 0
        self._min_schedule_length = 1
        self._protocol: ProtocolSpec | None = None
        self._environment = EnvironmentSpec()
        self._workload = WorkloadSpec()
        self._metrics: tuple[str, ...] = ()
        self._invariants: tuple[str, ...] = ()
        self._liveness_by: Instance | None = None
        self._faults = None
        self._keep_trace = True

    # ------------------------------------------------------------------
    # World: cluster
    # ------------------------------------------------------------------

    def nodes(self, n: int, *, cluster_radius: float | None = None) -> "ScenarioBuilder":
        """A Section 3 single-region cluster of ``n`` protocol nodes."""
        self._n = n
        self._cluster_radius = cluster_radius
        return self

    def radio(self, *, r1: float | None = None, r2: float | None = None,
              rcf: Round | None = None) -> "ScenarioBuilder":
        """Override the radio parameters (broadcast/interference radius,
        the adversarial-drop cutoff ``rcf``)."""
        if r1 is not None:
            self._r1 = r1
        if r2 is not None:
            self._r2 = r2
        if rcf is not None:
            self._rcf = rcf
        return self

    # ------------------------------------------------------------------
    # World: deployed (virtual infrastructure)
    # ------------------------------------------------------------------

    def sites(self, sites: Iterable[VNSite]) -> "ScenarioBuilder":
        """Deploy virtual nodes at the given sites."""
        self._sites = list(sites)
        return self

    def single_region(self, n_replicas: int = 3, *,
                      radius: float = 0.2) -> "ScenarioBuilder":
        """One virtual node at the origin, ``n_replicas`` replica devices."""
        from ..workloads import single_region

        sites, positions = single_region(n_replicas=n_replicas, radius=radius)
        return self.sites(sites).replicas(positions)

    def vn_line(self, count: int, *, spacing: float = 0.5,
                replicas_per_vn: int = 2) -> "ScenarioBuilder":
        """A corridor of virtual nodes with replica devices at each."""
        from ..workloads import vn_line

        sites, positions = vn_line(count, spacing=spacing,
                                   replicas_per_vn=replicas_per_vn)
        return self.sites(sites).replicas(positions)

    def vn_grid(self, rows: int, cols: int, *, spacing: float = 6.0,
                replicas_per_vn: int = 2) -> "ScenarioBuilder":
        """A grid of virtual nodes with replica devices at each."""
        from ..workloads import vn_grid

        sites, positions = vn_grid(rows, cols, spacing=spacing,
                                   replicas_per_vn=replicas_per_vn)
        return self.sites(sites).replicas(positions)

    def device(self, mobility: MobilityModel | Point, *,
               client: ClientProgram | None = None,
               start_round: Round = 0,
               initially_active: bool | None = None,
               name: str | None = None) -> "ScenarioBuilder":
        """Add one physical device (the generic form)."""
        self._devices.append(DeviceSpec(
            mobility=mobility, client=client, start_round=start_round,
            initially_active=initially_active, name=name,
        ))
        return self

    def replicas(self, mobilities: Iterable[MobilityModel | Point]) -> "ScenarioBuilder":
        """Add clientless replica devices, one per mobility/position."""
        for mobility in mobilities:
            self.device(mobility)
        return self

    def client(self, mobility: MobilityModel | Point,
               program: ClientProgram, *, start_round: Round = 0,
               initially_active: bool = False,
               name: str | None = None) -> "ScenarioBuilder":
        """Add a client device (inactive by default: it joins, not hosts)."""
        return self.device(mobility, client=program, start_round=start_round,
                           initially_active=initially_active, name=name)

    def program(self, vn_id: int, program: VNProgram) -> "ScenarioBuilder":
        """Assign the deterministic program for virtual node ``vn_id``."""
        self._programs[vn_id] = program
        return self

    def programs(self, programs: Mapping[int, VNProgram]) -> "ScenarioBuilder":
        self._programs.update(programs)
        return self

    def cm_stable_round(self, r: Round) -> "ScenarioBuilder":
        """Round from which the regional contention managers are stable."""
        self._cm_stable_round = r
        return self

    def min_schedule_length(self, length: int) -> "ScenarioBuilder":
        self._min_schedule_length = length
        return self

    # ------------------------------------------------------------------
    # Environment
    # ------------------------------------------------------------------

    def adversary(self, adversary: Adversary) -> "ScenarioBuilder":
        self._environment = dataclasses.replace(self._environment,
                                                adversary=adversary)
        return self

    def detector(self, detector: CollisionDetector) -> "ScenarioBuilder":
        self._environment = dataclasses.replace(self._environment,
                                                detector=detector)
        return self

    def contention(self, cm: ContentionManager) -> "ScenarioBuilder":
        self._environment = dataclasses.replace(self._environment, cm=cm)
        return self

    def crashes(self, crashes: CrashSchedule) -> "ScenarioBuilder":
        self._environment = dataclasses.replace(self._environment,
                                                crashes=crashes)
        return self

    def faults(self, plan, *, seed: int | None = None) -> "ScenarioBuilder":
        """Attach a declarative :class:`~repro.faults.FaultPlan`.

        The runner compiles the plan into the environment on entry
        (adversary, crashes, detector accuracy, world ``rcf``); explicit
        :meth:`adversary`/:meth:`detector`/:meth:`crashes` calls compose
        with it as documented on
        :func:`repro.faults.compile.apply_faults`.  ``seed`` reseeds the
        plan in place.
        """
        if seed is not None:
            plan = plan.with_seed(seed)
        self._faults = plan
        return self

    # ------------------------------------------------------------------
    # Protocol
    # ------------------------------------------------------------------

    def protocol(self, protocol: ProtocolSpec) -> "ScenarioBuilder":
        self._protocol = protocol
        return self

    def cha(self, *, proposer_factory: ProposerFactory | None = None) -> "ScenarioBuilder":
        return self.protocol(CHA(proposer_factory=proposer_factory))

    def checkpoint_cha(self, *, reducer: Callable[[Any, Instance, Value], Any],
                       initial_state: Any,
                       proposer_factory: ProposerFactory | None = None) -> "ScenarioBuilder":
        return self.protocol(CheckpointCHA(
            reducer=reducer, initial_state=initial_state,
            proposer_factory=proposer_factory,
        ))

    def naive_rsm(self, *, proposer_factory: ProposerFactory | None = None) -> "ScenarioBuilder":
        return self.protocol(NaiveRSM(proposer_factory=proposer_factory))

    def two_phase_cha(self, *, proposer_factory: ProposerFactory | None = None) -> "ScenarioBuilder":
        return self.protocol(TwoPhaseCHA(proposer_factory=proposer_factory))

    def majority_rsm(self) -> "ScenarioBuilder":
        return self.protocol(MajorityRSM())

    def three_phase_commit(self, votes: Iterable[bool], *,
                           lossy: Iterable[int] = (),
                           crash_coordinator_after: str | None = None) -> "ScenarioBuilder":
        return self.protocol(ThreePhaseCommit(
            votes=tuple(votes), lossy=frozenset(lossy),
            crash_coordinator_after=crash_coordinator_after,
        ))

    # ------------------------------------------------------------------
    # Workload / measurement
    # ------------------------------------------------------------------

    def instances(self, instances: Instance) -> "ScenarioBuilder":
        """Run this many agreement instances (cluster protocols)."""
        self._workload = dataclasses.replace(self._workload,
                                             instances=instances)
        return self

    def rounds(self, rounds: Round) -> "ScenarioBuilder":
        """Run a raw communication-round budget (cluster protocols)."""
        self._workload = dataclasses.replace(self._workload, rounds=rounds)
        return self

    def virtual_rounds(self, virtual_rounds: int) -> "ScenarioBuilder":
        """Run this many whole virtual rounds (VI emulations)."""
        self._workload = dataclasses.replace(self._workload,
                                             virtual_rounds=virtual_rounds)
        return self

    def metrics(self, *names: str) -> "ScenarioBuilder":
        self._metrics = self._metrics + names
        return self

    def invariants(self, *names: str) -> "ScenarioBuilder":
        self._invariants = self._invariants + names
        return self

    def liveness_by(self, instance: Instance) -> "ScenarioBuilder":
        """Arm the ``liveness`` invariant with its convergence deadline."""
        self._liveness_by = instance
        if "liveness" not in self._invariants and "all" not in self._invariants:
            self._invariants = self._invariants + ("liveness",)
        return self

    def keep_trace(self, keep: bool = True) -> "ScenarioBuilder":
        self._keep_trace = keep
        return self

    # ------------------------------------------------------------------
    # Terminal operations
    # ------------------------------------------------------------------

    def build(self) -> ExperimentSpec:
        """Assemble and validate the spec."""
        protocol = self._protocol
        if protocol is None:
            if self._sites is not None or self._programs:
                protocol = VIEmulation(programs=dict(self._programs))
            else:
                protocol = CHA()
        elif isinstance(protocol, VIEmulation) and self._programs:
            raise ConfigurationError(
                "pass programs either via .program()/.programs() or inside "
                "the VIEmulation protocol, not both"
            )

        world: ClusterWorld | DeployedWorld | None
        if isinstance(protocol, ThreePhaseCommit):
            world = None
        elif isinstance(protocol, VIEmulation):
            if self._sites is None:
                raise ConfigurationError(
                    "a VI emulation needs sites (.sites()/.single_region()/"
                    ".vn_line()/.vn_grid())"
                )
            world = DeployedWorld(
                sites=tuple(self._sites), devices=tuple(self._devices),
                r1=self._r1, r2=self._r2, rcf=self._rcf,
                cm_stable_round=self._cm_stable_round,
                min_schedule_length=self._min_schedule_length,
            )
        else:
            if self._n is None:
                raise ConfigurationError(
                    f"{type(protocol).__name__} needs .nodes(n)"
                )
            world = ClusterWorld(
                n=self._n, r1=self._r1, r2=self._r2, rcf=self._rcf,
                cluster_radius=self._cluster_radius,
            )

        spec = ExperimentSpec(
            protocol=protocol, world=world,
            environment=self._environment, workload=self._workload,
            metrics=MetricsSpec(metrics=self._metrics,
                                invariants=self._invariants,
                                liveness_by=self._liveness_by),
            faults=self._faults,
            keep_trace=self._keep_trace,
        )
        spec.validate()
        return spec

    def run(self) -> ExperimentResult:
        """Build the spec and execute it immediately."""
        from .runner import run

        return run(self.build())
