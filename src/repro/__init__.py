"""repro — Virtual Infrastructure for Collision-Prone Wireless Networks.

A complete Python reproduction of Chockler, Gilbert & Lynch (PODC 2008):

* :mod:`repro.net` — the slotted, collision-prone quasi-unit-disk radio
  model of Section 2, as a deterministic discrete-round simulator.
* :mod:`repro.detectors` — complete / eventually-accurate collision
  detectors (Properties 1-2).
* :mod:`repro.contention` — leader-election, exponential-backoff and
  regional contention managers (Property 3, Section 4.2).
* :mod:`repro.core` — **convergent history agreement** and the CHAP
  protocol of Figure 1, plus the checkpoint-CHA variant of Section 3.5
  and an executable CHA specification.
* :mod:`repro.vi` — the full virtual-infrastructure emulation of
  Section 4: schedules, replicas, clients, join/reset.
* :mod:`repro.baselines` — the naive full-history RSM and a
  majority-quorum RSM, the comparison points of Sections 1.5/3.4.
* :mod:`repro.apps` — applications the paper motivates (atomic memory,
  tracking, routing, robot coordination) built on virtual nodes.
* :mod:`repro.experiment` — the declarative experiment layer: one
  :class:`ExperimentSpec` describes world + environment + protocol +
  workload + metrics; :func:`run` executes any of them uniformly and
  :func:`sweep` fans parameter grids out over worker processes.
  Every fast path is proven byte-identical to its reference twin by a
  differential suite; a :class:`Switches` value (:mod:`repro.switches`)
  re-runs anything on the twins.
* :mod:`repro.service` — consensus as a service: an asyncio session
  front-end over many live worlds (``python -m repro.service``), with
  a newline-delimited-JSON wire protocol and per-session backpressure.

Quickstart::

    import repro

    result = (repro.scenario()
              .nodes(5).instances(20)
              .cha()
              .metrics("decided_instances", "max_message_size")
              .invariants("all").liveness_by(1)
              .run())
    result.assert_ok()

or, fully declaratively::

    spec = repro.ExperimentSpec(
        protocol=repro.CHA(),
        world=repro.ClusterWorld(n=5),
        workload=repro.WorkloadSpec(instances=20),
        metrics=repro.MetricsSpec(metrics=("decided_instances",)),
    )
    result = repro.run(spec)
    points = repro.sweep(spec, {"world__n": (3, 5, 9)}, workers=4)
"""

from .core import (
    Ballot,
    CHAProcess,
    ChaCore,
    CheckpointCHAProcess,
    History,
    ROUNDS_PER_INSTANCE,
    calculate_history_reference,
    check_agreement,
    check_all,
    check_liveness,
    check_validity,
    find_liveness_point,
)
from .experiment import (
    CHA,
    CheckpointCHA,
    ClusterWorld,
    DeployedWorld,
    DeviceSpec,
    EnvironmentSpec,
    ExperimentResult,
    ExperimentSpec,
    MajorityRSM,
    MetricsSpec,
    NaiveRSM,
    ScenarioBuilder,
    SweepPoint,
    ThreePhaseCommit,
    TwoPhaseCHA,
    VIEmulation,
    WorkloadSpec,
    run,
    scenario,
    sweep,
)
from .switches import Switches
from .types import BOTTOM, Color
from . import net, detectors, contention, core, experiment
# Imported last: these layers sit on top of experiment.
from . import faults, service
from .faults import FaultPlan

__version__ = "1.1.0"

__all__ = [
    "BOTTOM",
    "Ballot",
    "CHA",
    "CHAProcess",
    "ChaCore",
    "CheckpointCHA",
    "CheckpointCHAProcess",
    "ClusterWorld",
    "Color",
    "DeployedWorld",
    "DeviceSpec",
    "EnvironmentSpec",
    "ExperimentResult",
    "ExperimentSpec",
    "FaultPlan",
    "History",
    "MajorityRSM",
    "MetricsSpec",
    "NaiveRSM",
    "ROUNDS_PER_INSTANCE",
    "ScenarioBuilder",
    "SweepPoint",
    "Switches",
    "ThreePhaseCommit",
    "TwoPhaseCHA",
    "VIEmulation",
    "WorkloadSpec",
    "calculate_history_reference",
    "check_agreement",
    "check_all",
    "check_liveness",
    "check_validity",
    "contention",
    "core",
    "detectors",
    "experiment",
    "faults",
    "find_liveness_point",
    "net",
    "run",
    "scenario",
    "service",
    "sweep",
    "__version__",
]
