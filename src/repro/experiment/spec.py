"""The declarative experiment specification.

An :class:`ExperimentSpec` is a complete, inert description of one
experiment: the **world** (geometry, placement, radio parameters), the
**environment** (adversary, collision detector, contention manager, crash
schedule), the **protocol** (plain CHA, checkpoint-CHA, a baseline, a 3PC
comparator, or a full virtual-infrastructure deployment), the
**workload** (how long to run) and the **metrics/invariants** to extract.
Specs are plain frozen dataclasses, so they pickle (the sweep runner
ships them to worker processes), compare and print cleanly, and can be
rewritten field-by-field with :meth:`ExperimentSpec.override`.

Construct specs directly, or fluently with
:class:`repro.experiment.builder.ScenarioBuilder`; execute them with
:func:`repro.experiment.runner.run`.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Mapping

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (runtime use
    # of FaultPlan lives in repro.faults.compile, resolved lazily by the
    # runner).
    from ..faults.plan import FaultPlan

from ..contention import ContentionManager
from ..detectors import CollisionDetector
from ..errors import ConfigurationError
from ..geometry import Point
from ..net import Adversary, CrashSchedule, MobilityModel
from ..switches import Switches
from ..types import Instance, NodeId, Round, Value
from ..vi.client import ClientProgram
from ..vi.program import VNProgram
from ..vi.schedule import Schedule, VNSite

#: Supplies each node its per-instance proposal function.
ProposerFactory = Callable[[NodeId], Callable[[Instance], Value]]


# ----------------------------------------------------------------------
# Worlds
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ClusterWorld:
    """The Section 3 single-region world: ``n`` nodes within ``R1/2``."""

    n: int
    r1: float = 1.0
    r2: float = 1.5
    rcf: Round = 0
    #: Radius of the placement circle (defaults to ``r1 / 4``).
    cluster_radius: float | None = None

    def validate(self) -> None:
        if self.n < 1:
            raise ConfigurationError("cluster world needs at least one node")
        if self.r2 < self.r1:
            raise ConfigurationError("quasi-unit-disk model needs r2 >= r1")


def cluster_positions(n: int, *, center: Point = Point(0.0, 0.0),
                      radius: float = 0.25) -> list[Point]:
    """``n`` positions on a circle of ``radius`` around ``center``.

    ``radius <= R1/2`` keeps every pair within ``R1`` of each other, the
    Section 3 precondition; the default is ``R1/4`` for the default
    ``R1 = 1``.  A circle (rather than a single point) keeps positions
    distinct so geometry bugs cannot hide.
    """
    if n < 1:
        raise ValueError("need at least one node")
    positions = []
    for i in range(n):
        angle = 2.0 * math.pi * i / n
        positions.append(Point(
            center.x + radius * math.cos(angle),
            center.y + radius * math.sin(angle),
        ))
    return positions


def default_proposer(node: NodeId) -> Callable[[Instance], Value]:
    """Distinct, totally-ordered string proposals: ``v<node>.<instance>``.

    Values are fixed-width (the paper's domain ``V`` has constant-size
    elements), so that message-size measurements are not polluted by the
    decimal width of the instance number.
    """
    return lambda k: f"v{node}.{k:06d}"


@dataclass(frozen=True)
class DeviceSpec:
    """One physical device of a deployed world.

    ``initially_active`` follows :meth:`repro.vi.world.VIWorld.add_device`
    semantics (default: active iff present from round 0); ``name`` lets
    results be queried by role instead of node id.
    """

    mobility: MobilityModel | Point
    client: ClientProgram | None = None
    start_round: Round = 0
    initially_active: bool | None = None
    name: str | None = None


@dataclass(frozen=True)
class DeployedWorld:
    """A Section 4 world: virtual-node sites plus physical devices."""

    sites: tuple[VNSite, ...]
    devices: tuple[DeviceSpec, ...] = ()
    r1: float = 1.0
    r2: float = 1.5
    rcf: Round = 0
    cm_stable_round: Round = 0
    min_schedule_length: int = 1
    schedule: Schedule | None = None

    def validate(self) -> None:
        if not self.sites:
            raise ConfigurationError("deployed world needs at least one site")
        names = [d.name for d in self.devices if d.name is not None]
        if len(names) != len(set(names)):
            raise ConfigurationError("device names must be unique")


# ----------------------------------------------------------------------
# Protocols
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CHA:
    """Plain CHAP on the canonical 3-round schedule (Figure 1)."""

    proposer_factory: ProposerFactory | None = None


@dataclass(frozen=True)
class CheckpointCHA:
    """Checkpoint-CHA (Section 3.5): fold-and-GC below green instances."""

    reducer: Callable[[Any, Instance, Value], Any]
    initial_state: Any
    proposer_factory: ProposerFactory | None = None


@dataclass(frozen=True)
class NaiveRSM:
    """The full-history-on-the-wire strawman of Section 3.4."""

    proposer_factory: ProposerFactory | None = None


@dataclass(frozen=True)
class TwoPhaseCHA:
    """Ablation A1: CHAP without the veto-2 phase (unsafe)."""

    proposer_factory: ProposerFactory | None = None


@dataclass(frozen=True)
class MajorityRSM:
    """The majority-quorum strawman of Section 1.5 (node 0 leads)."""


@dataclass(frozen=True)
class ThreePhaseCommit:
    """Textbook 3PC, CHAP's ancestor — an off-channel comparator."""

    votes: tuple[bool, ...]
    lossy: frozenset[int] = frozenset()
    crash_coordinator_after: str | None = None


@dataclass(frozen=True)
class VIEmulation:
    """The full virtual-infrastructure emulation of Section 4."""

    #: Deterministic program per virtual-node id (must cover every site).
    programs: Mapping[int, VNProgram] = field(default_factory=dict)


ProtocolSpec = (CHA | CheckpointCHA | NaiveRSM | TwoPhaseCHA | MajorityRSM
                | ThreePhaseCommit | VIEmulation)


# ----------------------------------------------------------------------
# Environment / workload / measurement
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class EnvironmentSpec:
    """Everything hostile or scheduled about the run.

    ``None`` fields take the benign defaults run-time (no adversary, an
    immediately-accurate detector, an immediately-stable leader-election
    contention manager, no crashes).  The contention manager is ignored by deployed worlds,
    which build one :class:`~repro.contention.RegionalCM` per site.
    """

    adversary: Adversary | None = None
    detector: CollisionDetector | None = None
    cm: ContentionManager | None = None
    crashes: CrashSchedule | None = None


@dataclass(frozen=True)
class WorkloadSpec:
    """How much work to run.

    Exactly one of the fields applies, depending on the protocol family:
    ``instances`` for agreement protocols (converted to real rounds at
    each protocol's rounds-per-instance), ``rounds`` for a raw
    communication-round budget, ``virtual_rounds`` for emulations.
    """

    instances: Instance | None = None
    rounds: Round | None = None
    virtual_rounds: int | None = None


@dataclass(frozen=True)
class MetricsSpec:
    """Which metrics to extract and which invariants to verify.

    Metric and invariant names are resolved against the registries in
    :mod:`repro.experiment.runner`; ``invariants=("all",)`` expands to
    every checker applicable to the protocol.  ``liveness_by`` arms the
    ``liveness`` invariant with its convergence deadline.
    """

    metrics: tuple[str, ...] = ()
    invariants: tuple[str, ...] = ()
    liveness_by: Instance | None = None


# ----------------------------------------------------------------------
# The spec itself
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentSpec:
    """One complete, declarative experiment."""

    protocol: ProtocolSpec
    world: ClusterWorld | DeployedWorld | None = None
    environment: EnvironmentSpec = field(default_factory=EnvironmentSpec)
    workload: WorkloadSpec = field(default_factory=WorkloadSpec)
    metrics: MetricsSpec = field(default_factory=MetricsSpec)
    #: A declarative :class:`~repro.faults.FaultPlan`; the runner
    #: compiles it into the environment (adversary, crashes, detector,
    #: stabilisation rounds) on entry.  Stays inert — and picklable —
    #: until then, so fault-laden sweeps fan out like any other.
    faults: "FaultPlan | None" = None
    #: Retain the full :class:`~repro.net.trace.Trace`?  Sweeps switch
    #: this off: every registry metric is computed online via observers.
    keep_trace: bool = True
    #: The reference switches of this run, as one value (see
    #: :mod:`repro.switches`); the default is the production stack.
    switches: Switches = Switches()

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` on inconsistent combinations."""
        protocol, world, workload = self.protocol, self.world, self.workload
        if isinstance(protocol, ThreePhaseCommit):
            if world is not None:
                raise ConfigurationError(
                    "the 3PC comparator runs off-channel: world must be None"
                )
            if self.faults is not None:
                raise ConfigurationError(
                    "the 3PC comparator runs off-channel: it cannot carry "
                    "a FaultPlan"
                )
            return
        if isinstance(protocol, VIEmulation):
            if not isinstance(world, DeployedWorld):
                raise ConfigurationError(
                    "VI emulation needs a DeployedWorld (sites + devices)"
                )
            world.validate()
            if set(protocol.programs) != {s.vn_id for s in world.sites}:
                raise ConfigurationError(
                    "programs must be keyed exactly by the site vn_ids"
                )
            if workload.virtual_rounds is None:
                raise ConfigurationError(
                    "VI emulation needs workload.virtual_rounds"
                )
            return
        if not isinstance(world, ClusterWorld):
            raise ConfigurationError(
                f"{type(protocol).__name__} needs a ClusterWorld"
            )
        world.validate()
        if workload.instances is None and workload.rounds is None:
            raise ConfigurationError(
                "cluster protocols need workload.instances or workload.rounds"
            )
        if workload.instances is not None and workload.rounds is not None:
            raise ConfigurationError(
                "workload.instances and workload.rounds are mutually "
                "exclusive; set exactly one"
            )

    def override(self, **overrides: Any) -> "ExperimentSpec":
        """A copy with dotted-path fields replaced.

        Keys use ``__`` as the path separator (so they stay valid keyword
        names): ``spec.override(world__n=12, workload__instances=50)``.
        The sweep runner drives grids through this.
        """
        spec = self
        for path, value in overrides.items():
            spec = _replace_path(spec, path.split("__"), value)
        return spec


def _replace_path(obj: Any, path: list[str], value: Any) -> Any:
    head, rest = path[0], path[1:]
    if not hasattr(obj, head):
        raise ConfigurationError(
            f"{type(obj).__name__} has no field {head!r}"
        )
    if rest:
        value = _replace_path(getattr(obj, head), rest, value)
    return dataclasses.replace(obj, **{head: value})
