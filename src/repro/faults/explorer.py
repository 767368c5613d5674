"""Fan seeded fault plans across every protocol, checking the spec.

The explorer is the systematic bug-hunting loop the ad-hoc soak tests
used to hand-wire: take a set of :class:`~repro.faults.FaultPlan`\\ s,
reseed each across a seed range, run every protocol under them through
:mod:`repro.experiment`, and check the executable CHA specification
(Validity/Agreement) plus every applicable glass-box lemma invariant on
each run.  Anything that fails comes back as an
:class:`ExplorationCase` ready to hand to :func:`repro.faults.shrink.shrink_case`.

``run_case`` is deliberately tiny — ``(protocol name, plan, n,
instances) -> failure-or-None`` — because it doubles as the oracle the
shrinker minimises against *and* the entrypoint emitted reproducers
call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, Sequence

from ..core.cha import ROUNDS_PER_INSTANCE
from ..errors import ConfigurationError, ReproError
from ..experiment.spec import (
    CHA,
    CheckpointCHA,
    ClusterWorld,
    DeployedWorld,
    DeviceSpec,
    ExperimentSpec,
    MetricsSpec,
    NaiveRSM,
    TwoPhaseCHA,
    VIEmulation,
    WorkloadSpec,
)
from ..experiment.runner import rounds_per_instance
from .plan import NEVER, FaultPlan

#: Slack instances run after the plan's stabilisation round so liveness
#: has room to resume and safety checkers see post-recovery behaviour.
POST_STABILIZATION_INSTANCES = 12


def _count_reducer(state: int, k: int, value: Any) -> int:
    """Module-level (hence picklable) checkpoint reducer: count decisions."""
    return state + 1


def liveness_deadline(plan: FaultPlan, instances: int, *,
                      rpi: int = ROUNDS_PER_INSTANCE) -> int | None:
    """The instance by which a faulted run must have converged.

    The first instance wholly after the plan's stabilisation round,
    plus slack for the instance poisoned mid-stabilisation to flush.
    ``None`` (liveness unchecked) when the plan never stabilises or the
    workload ends before the deadline.
    """
    stab = plan.stabilization_round()
    if stab >= NEVER:
        return None
    deadline = stab // rpi + 3
    return deadline if deadline <= instances else None


def _cluster_spec(protocol: Any, plan: FaultPlan, n: int,
                  instances: int) -> ExperimentSpec:
    # liveness_by arms the liveness invariant inside the "all" expansion
    # for the full-history protocols (ignored where not applicable).
    # The deadline must be measured in the protocol's own instance
    # cadence, or it lands inside the hostile window.
    rpi = rounds_per_instance(protocol, n)
    return ExperimentSpec(
        protocol=protocol,
        world=ClusterWorld(n=n),
        workload=WorkloadSpec(instances=instances),
        metrics=MetricsSpec(invariants=("all",),
                            liveness_by=liveness_deadline(plan, instances,
                                                          rpi=rpi)),
        faults=plan,
        keep_trace=False,
    )


def _vi_spec(plan: FaultPlan, n: int, instances: int) -> ExperimentSpec:
    from ..geometry import Point
    from ..vi.client import ScriptedClient
    from ..vi.program import CounterProgram
    from ..workloads.scenarios import single_region

    sites, positions = single_region(n_replicas=max(n - 1, 2))
    devices = tuple(DeviceSpec(mobility=p) for p in positions) + (
        DeviceSpec(
            mobility=Point(0.4, 0.0),
            client=ScriptedClient({vr: ("add", 1)
                                   for vr in range(1, instances, 2)}),
            initially_active=False,
        ),
    )
    # Post-stabilisation liveness: the final quarter of the virtual
    # rounds must all be live (the hostile window is sized to end well
    # before it — cf. default_instances).
    return ExperimentSpec(
        protocol=VIEmulation(programs={0: CounterProgram()}),
        world=DeployedWorld(sites=tuple(sites), devices=devices),
        workload=WorkloadSpec(virtual_rounds=instances),
        metrics=MetricsSpec(invariants=("replica_consistency", "liveness"),
                            liveness_by=max(1, (3 * instances) // 4)),
        faults=plan,
        keep_trace=False,
    )


#: Protocol name -> spec factory ``(plan, n, instances) -> ExperimentSpec``.
#: Every cluster entry runs with ``invariants=("all",)`` — the black-box
#: CHA spec (validity, agreement) plus each applicable lemma checker.
PROTOCOLS: dict[str, Callable[[FaultPlan, int, int], ExperimentSpec]] = {
    "cha": lambda plan, n, k: _cluster_spec(CHA(), plan, n, k),
    "checkpoint-cha": lambda plan, n, k: _cluster_spec(
        CheckpointCHA(reducer=_count_reducer, initial_state=0), plan, n, k),
    "naive-rsm": lambda plan, n, k: _cluster_spec(NaiveRSM(), plan, n, k),
    "two-phase-cha": lambda plan, n, k: _cluster_spec(TwoPhaseCHA(), plan, n, k),
    "vi": _vi_spec,
}

#: Protocols believed correct: the explorer finding a violation here is
#: a genuine bug (the two-phase ablation is *expected* to break).
SOUND_PROTOCOLS = ("cha", "checkpoint-cha", "naive-rsm", "vi")


@dataclass(frozen=True)
class Failure:
    """One invariant violation (or crash) observed by the explorer."""

    invariant: str
    message: str
    #: The checker's reproduction context (violating instance, nodes...).
    context: Mapping[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:
        return f"{self.invariant}: {self.message}"


@dataclass(frozen=True)
class ExplorationCase:
    """One (protocol, plan, world size, workload) exploration outcome."""

    protocol: str
    plan: FaultPlan
    n: int
    instances: int
    verdicts: Mapping[str, str]
    failure: Failure | None

    @property
    def failed(self) -> bool:
        return self.failure is not None


def default_instances(plan: FaultPlan, *,
                      rpi: int = ROUNDS_PER_INSTANCE) -> int:
    """Enough instances to outlast the plan's hostile window.

    Runs extend :data:`POST_STABILIZATION_INSTANCES` instances past the
    stabilisation round so recovery behaviour is exercised too; plans
    that never stabilise get the slack alone.
    """
    stab = plan.stabilization_round()
    if stab >= NEVER:
        stab = 0
    return math.ceil(stab / rpi) + POST_STABILIZATION_INSTANCES


def run_case_detailed(protocol: str, plan: FaultPlan, *, n: int,
                      instances: int) -> ExplorationCase:
    """Run one protocol under one plan; never raises on spec violations."""
    try:
        factory = PROTOCOLS[protocol]
    except KeyError:
        raise ConfigurationError(
            f"unknown protocol {protocol!r}; known: {sorted(PROTOCOLS)}"
        ) from None
    from ..experiment.runner import run

    spec = factory(plan, n, instances)
    try:
        result = run(spec)
    except ReproError as exc:
        # The protocol itself blew up (not a checker): still a finding.
        return ExplorationCase(
            protocol=protocol, plan=plan, n=n, instances=instances,
            verdicts={}, failure=Failure(
                invariant="exception",
                message=f"{type(exc).__name__}: {exc}",
                context=dict(getattr(exc, "context", {}) or {}),
            ),
        )
    failure = None
    for name, verdict in result.invariants.items():
        if verdict != "ok":
            failure = Failure(
                invariant=name, message=verdict,
                context=dict(result.violation_context.get(name, {})),
            )
            break
    return ExplorationCase(
        protocol=protocol, plan=plan, n=n, instances=instances,
        verdicts=dict(result.invariants), failure=failure,
    )


def run_case(protocol: str, plan: FaultPlan, *, n: int,
             instances: int) -> str | None:
    """The one-line oracle: first failure as a string, or ``None``.

    Emitted reproducers call exactly this.
    """
    case = run_case_detailed(protocol, plan, n=n, instances=instances)
    return str(case.failure) if case.failure is not None else None


@dataclass
class ExplorationReport:
    """Everything one :func:`explore` sweep observed."""

    cases: list[ExplorationCase]

    @property
    def failures(self) -> list[ExplorationCase]:
        return [c for c in self.cases if c.failed]

    @property
    def unsound_failures(self) -> list[ExplorationCase]:
        """Failures of protocols believed correct — genuine bugs."""
        return [c for c in self.failures if c.protocol in SOUND_PROTOCOLS]

    def summary(self) -> str:
        lines = [f"{len(self.cases)} runs, {len(self.failures)} failures"]
        for case in self.failures:
            lines.append(
                f"  {case.protocol} n={case.n} instances={case.instances} "
                f"seed={case.plan.seed}: {case.failure}"
            )
        return "\n".join(lines)


def explore(plans: Iterable[FaultPlan], *,
            protocols: Sequence[str] = ("cha", "checkpoint-cha",
                                        "naive-rsm", "two-phase-cha"),
            seeds: Iterable[int] = (0, 1, 2),
            n: int = 5,
            instances: int | None = None) -> ExplorationReport:
    """Fan every plan across ``seeds`` x ``protocols``.

    ``instances=None`` sizes each run to the plan via
    :func:`default_instances`.  Deterministic: cases are produced in
    plan-major, seed-middle, protocol-minor order.
    """
    seeds = tuple(seeds)
    cases = []
    for base_plan in plans:
        for seed in seeds:
            plan = base_plan.with_seed(seed)
            budget = (default_instances(plan) if instances is None
                      else instances)
            for protocol in protocols:
                cases.append(run_case_detailed(
                    protocol, plan, n=n, instances=budget,
                ))
    return ExplorationReport(cases=cases)
