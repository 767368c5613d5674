"""One declarative entrypoint for every protocol, world, and sweep.

* :mod:`~repro.experiment.spec` — the :class:`ExperimentSpec` dataclasses.
* :mod:`~repro.experiment.builder` — the fluent :func:`scenario` builder.
* :mod:`~repro.experiment.runner` — :func:`run`, the single entrypoint.
* :mod:`~repro.experiment.sweep` — :func:`sweep`, parallel grid fan-out.
* :mod:`~repro.experiment.observers` — online per-round metric collectors.
"""

from .builder import ScenarioBuilder, scenario
from .observers import WireStatsObserver
from .result import ExperimentResult
from .runner import ExperimentStepper, run
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
    ThreePhaseCommit,
    TwoPhaseCHA,
    VIEmulation,
    WorkloadSpec,
    cluster_positions,
    default_proposer,
)
from .sweep import SweepPoint, expand_grid, sweep

__all__ = [
    "CHA",
    "CheckpointCHA",
    "ClusterWorld",
    "DeployedWorld",
    "DeviceSpec",
    "EnvironmentSpec",
    "ExperimentResult",
    "ExperimentSpec",
    "ExperimentStepper",
    "MajorityRSM",
    "MetricsSpec",
    "NaiveRSM",
    "ScenarioBuilder",
    "SweepPoint",
    "ThreePhaseCommit",
    "TwoPhaseCHA",
    "VIEmulation",
    "WireStatsObserver",
    "WorkloadSpec",
    "cluster_positions",
    "default_proposer",
    "expand_grid",
    "run",
    "scenario",
    "sweep",
]
