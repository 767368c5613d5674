"""Convenience harness: run a CHAP ensemble in the Section 3 setting.

Section 3 fixes the environment: all ``n`` nodes sit within ``R1/2`` of a
location ``ℓ`` (so every pair can hear every pair), at least one is
correct, and a leader-election contention manager ``Cℓ`` serves them.
:func:`run_cha` builds exactly that world, runs a given number of
instances, and returns everything the spec checkers and the experiment
tables need.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping

from ..contention import ContentionManager
from ..detectors import CollisionDetector
from ..geometry import Point
from ..net import (
    Adversary,
    CrashSchedule,
    Simulator,
    Trace,
)
from ..types import Color, Instance, NodeId, Value
from .cha import CHAProcess
from .history import History
from .spec import OutputLog

#: Default radii for the single-region setting.
DEFAULT_R1 = 1.0
DEFAULT_R2 = 1.5


def cluster_positions(n: int, *, center: Point = Point(0.0, 0.0),
                      radius: float = DEFAULT_R1 / 4) -> list[Point]:
    """``n`` positions on a circle of ``radius`` around ``center``.

    ``radius <= R1/2`` keeps every pair within ``R1`` of each other, the
    Section 3 precondition.  A circle (rather than a single point) keeps
    positions distinct so geometry bugs cannot hide.
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


@dataclass
class ChaRun:
    """Everything produced by one CHAP ensemble execution."""

    simulator: Simulator
    processes: dict[NodeId, CHAProcess]
    trace: Trace
    instances: Instance

    @property
    def outputs(self) -> dict[NodeId, OutputLog]:
        """Per-node output logs, as the processes hold them: sequences
        that may be live views (never materialised here).  Builds a
        fresh dict per read — hoist it out of loops."""
        return {node: proc.outputs for node, proc in self.processes.items()}

    @property
    def proposals(self) -> dict[NodeId, Mapping[Instance, Value]]:
        return {node: proc.proposals_made for node, proc in self.processes.items()}

    def surviving_nodes(self) -> list[NodeId]:
        """Nodes alive at the end of the execution."""
        return [
            node for node in self.processes
            if self.simulator.alive(node)
        ]

    def colors_at(self, k: Instance) -> dict[NodeId, Color]:
        """Colour each *surviving* node assigned to instance ``k``."""
        return {
            node: proc.core.color_of(k)
            for node, proc in self.processes.items()
            if self.simulator.alive(node)
        }

    def history_of(self, node: NodeId) -> History | None:
        return self.processes[node].core.decided_history()


def run_cha(n: int, instances: Instance, *,
            adversary: Adversary | None = None,
            detector: CollisionDetector | None = None,
            cm: ContentionManager | None = None,
            crashes: CrashSchedule | None = None,
            proposer_factory: Callable[[NodeId], Callable[[Instance], Value]] | None = None,
            process_factory: Callable[..., CHAProcess] | None = None,
            r1: float = DEFAULT_R1, r2: float = DEFAULT_R2,
            rcf: int = 0) -> ChaRun:
    """Run ``n`` CHAP replicas for ``instances`` agreement instances.

    Defaults give the stable, benign world (no adversary, accurate
    detector, immediately-stable contention manager); pass an adversary,
    a later-stabilising detector/manager, and a crash schedule to exercise
    the unstable regime.

    This is a compatibility shim over the declarative experiment API —
    equivalent to building an :class:`~repro.experiment.ExperimentSpec`
    with a :class:`~repro.experiment.ClusterWorld` and a
    :class:`~repro.experiment.CHA` protocol and calling
    :func:`repro.experiment.run`; new code should do that directly.
    """
    from ..experiment import (
        CHA,
        ClusterWorld,
        EnvironmentSpec,
        ExperimentSpec,
        WorkloadSpec,
    )
    from ..experiment.runner import run as run_experiment

    result = run_experiment(ExperimentSpec(
        protocol=CHA(proposer_factory=proposer_factory,
                     process_factory=process_factory),
        world=ClusterWorld(n=n, r1=r1, r2=r2, rcf=rcf,
                           cluster_radius=DEFAULT_R1 / 4),
        environment=EnvironmentSpec(adversary=adversary, detector=detector,
                                    cm=cm, crashes=crashes),
        workload=WorkloadSpec(instances=instances),
    ))
    return result.cha_run
