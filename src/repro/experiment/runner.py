"""Execute an :class:`~repro.experiment.spec.ExperimentSpec`.

:func:`run` is the one entrypoint behind every protocol the library
implements.  It builds the world, wires the environment, drives the
execution, and extracts the requested metrics (collected online through
the simulator's observer hook wherever possible) and invariant verdicts
into a uniform :class:`~repro.experiment.result.ExperimentResult`.

Metric and invariant names are resolved against per-family registries;
asking for a metric a protocol cannot produce is a configuration error,
not a silent ``None``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Callable, Mapping

from ..analysis.invariants import GLASS_BOX_CHECKERS
from ..baselines.majority_rsm import MajorityRSMProcess
from ..baselines.naive_rsm import NaiveRSMProcess
from ..baselines.three_phase_commit import (
    Participant,
    ThreePhaseCommit as ThreePhaseCommitTxn,
    state_spread,
)
from ..baselines.two_phase_cha import TWO_PHASE_ROUNDS, TwoPhaseChaProcess
from ..contention import LeaderElectionCM
from ..core.cha import CHAEnsemble, CHAProcess, ROUNDS_PER_INSTANCE
from ..core.checkpoint import CheckpointCHAProcess
from ..core.history import activate_chain_generation, new_chain_generation
from ..core.runner import ChaRun, cluster_positions, default_proposer
from ..core.spec import (
    check_agreement,
    check_liveness,
    check_validity,
    log_bottoms,
)
from ..detectors import EventuallyAccurateDetector
from ..errors import ConfigurationError, SimulationError, SpecViolation
from ..net import RadioSpec, Simulator
from ..switches import Switches
from ..types import NodeId
from ..vi.world import VIWorld
from .observers import WireStatsObserver
from .result import OK, ExperimentResult
from .spec import (
    CHA,
    CheckpointCHA,
    ClusterWorld,
    DeployedWorld,
    ExperimentSpec,
    MajorityRSM,
    NaiveRSM,
    ThreePhaseCommit,
    TwoPhaseCHA,
    VIEmulation,
)


@dataclass
class _RunContext:
    """Everything metric/invariant extractors may consult."""

    spec: ExperimentSpec
    #: The stepper's resolved switches (never re-read from the
    #: environment after the world was built).
    switches: Switches
    rounds_run: int = 0
    wire: WireStatsObserver | None = None
    sim: Simulator | None = None
    cha_run: ChaRun | None = None
    processes: dict[NodeId, Any] = field(default_factory=dict)
    world: VIWorld | None = None
    decision: Any = None
    participants: list[Participant] = field(default_factory=list)
    txn_log: tuple[str, ...] = ()


# ----------------------------------------------------------------------
# Metric registries
# ----------------------------------------------------------------------

def _wire(ctx: _RunContext) -> WireStatsObserver:
    assert ctx.wire is not None
    return ctx.wire


_WIRE_METRICS: dict[str, Callable[[_RunContext], Any]] = {
    "rounds": lambda ctx: _wire(ctx).rounds,
    "total_broadcasts": lambda ctx: _wire(ctx).total_broadcasts,
    "max_message_size": lambda ctx: _wire(ctx).max_message_size,
    "mean_message_size": lambda ctx: _wire(ctx).mean_message_size,
    "collision_flags": lambda ctx: dict(_wire(ctx).collision_flags),
}


def _decided_by_node(ctx: _RunContext) -> dict[NodeId, int]:
    run = ctx.cha_run
    assert run is not None
    return {
        node: len(log) - log_bottoms(log)
        for node, log in run.outputs.items()
    }


def _throughput_by_node(ctx: _RunContext) -> dict[NodeId, float]:
    rounds = ctx.rounds_run
    return {
        node: (decided / rounds if rounds else 0.0)
        for node, decided in _decided_by_node(ctx).items()
    }


def _bottom_rate_by_node(ctx: _RunContext) -> dict[NodeId, float]:
    run = ctx.cha_run
    assert run is not None
    return {
        node: (log_bottoms(log) / len(log) if log else 0.0)
        for node, log in run.outputs.items()
    }


def _color_divergence(ctx: _RunContext) -> dict[int, int]:
    from ..analysis.metrics import color_divergence_histogram

    assert ctx.cha_run is not None
    return color_divergence_histogram(ctx.cha_run)


def _convergence_instance(ctx: _RunContext) -> Any:
    from ..analysis.metrics import convergence_instance

    assert ctx.cha_run is not None
    return convergence_instance(ctx.cha_run)


def _resident_entries(ctx: _RunContext) -> dict[NodeId, int]:
    return {
        node: proc.core.resident_entries()
        for node, proc in ctx.processes.items()
    }


_CHA_METRICS: dict[str, Callable[[_RunContext], Any]] = {
    **_WIRE_METRICS,
    "decided_instances": _decided_by_node,
    "decision_throughput": _throughput_by_node,
    "bottom_rate": _bottom_rate_by_node,
    "color_divergence": _color_divergence,
    "convergence_instance": _convergence_instance,
    "resident_entries": _resident_entries,
}

_MAJORITY_METRICS: dict[str, Callable[[_RunContext], Any]] = {
    **_WIRE_METRICS,
    "decided_instances": lambda ctx: {
        node: proc.decided_count for node, proc in ctx.processes.items()
    },
}

_VI_METRICS: dict[str, Callable[[_RunContext], Any]] = {
    **_WIRE_METRICS,
    "availability": lambda ctx: {
        site.vn_id: ctx.world.availability(site.vn_id)
        for site in ctx.world.sites
    },
    "emulation_gaps": lambda ctx: {
        site.vn_id: ctx.world.emulation_gaps(site.vn_id)
        for site in ctx.world.sites
    },
    "schedule_length": lambda ctx: ctx.world.schedule.length,
    "rounds_per_virtual_round": lambda ctx: (
        ctx.rounds_run / ctx.world.virtual_rounds_run
        if ctx.world.virtual_rounds_run else 0.0
    ),
}

_3PC_METRICS: dict[str, Callable[[_RunContext], Any]] = {
    "decision": lambda ctx: ctx.decision.value,
    "state_spread": lambda ctx: state_spread(ctx.participants),
    "log": lambda ctx: ctx.txn_log,
}


# ----------------------------------------------------------------------
# Invariant registries
# ----------------------------------------------------------------------

def _inv_validity(ctx: _RunContext) -> None:
    check_validity(ctx.cha_run.outputs, ctx.cha_run.proposals)


def _inv_agreement(ctx: _RunContext) -> None:
    check_agreement(ctx.cha_run.outputs, switches=ctx.switches)


def _inv_liveness(ctx: _RunContext) -> None:
    by = ctx.spec.metrics.liveness_by
    if by is None:
        raise ConfigurationError(
            "the liveness invariant needs MetricsSpec.liveness_by"
        )
    run = ctx.cha_run
    survivors = run.surviving_nodes()
    outputs = run.outputs
    check_liveness(
        {node: outputs[node] for node in survivors},
        by_instance=by, alive=survivors,
    )


def _inv_replica_consistency(ctx: _RunContext) -> None:
    for site in ctx.world.sites:
        try:
            ctx.world.check_replica_consistency(site.vn_id)
        except AssertionError as exc:
            raise SpecViolation(str(exc)) from None


def _inv_vi_liveness(ctx: _RunContext) -> None:
    """Every virtual node is live in every virtual round from
    ``liveness_by`` (a virtual-round index) onward."""
    by = ctx.spec.metrics.liveness_by
    if by is None:
        raise ConfigurationError(
            "the liveness invariant needs MetricsSpec.liveness_by "
            "(a virtual-round index for emulations)"
        )
    for site in ctx.world.sites:
        outcomes = ctx.world.outcomes[site.vn_id]
        tail = outcomes[by:]
        if not tail:
            raise SpecViolation(
                f"liveness: the run ended before virtual round {by}",
                context={"vn_id": site.vn_id, "by": by},
            )
        for offset, outcome in enumerate(tail):
            if not outcome.live:
                raise SpecViolation(
                    f"liveness: virtual node {site.vn_id} not live at "
                    f"virtual round {by + offset} (required from {by} on)",
                    context={"vn_id": site.vn_id, "vr": by + offset,
                             "by": by},
                )


_FULL_HISTORY_INVARIANTS: dict[str, Callable[[_RunContext], None]] = {
    "validity": _inv_validity,
    "agreement": _inv_agreement,
    "liveness": _inv_liveness,
    # The glass-box lemma checkers come from the analysis registry, the
    # single source of truth shared with ad-hoc ChaRun debugging
    # (repro.analysis.collect_violations).
    **{name: (lambda ctx, checker=checker: checker(ctx.cha_run))
       for name, checker in GLASS_BOX_CHECKERS.items()},
}

#: Checkpoint outputs are (checkpoint, suffix) pairs, not full histories,
#: so only the glass-box colour/pointer checkers apply.
_CHECKPOINT_INVARIANTS = {
    name: _FULL_HISTORY_INVARIANTS[name]
    for name in ("property4", "lemma5", "prev_pointer")
}

_VI_INVARIANTS: dict[str, Callable[[_RunContext], None]] = {
    "replica_consistency": _inv_replica_consistency,
    "liveness": _inv_vi_liveness,
}


def _registries_for(protocol) -> tuple[dict, dict]:
    if isinstance(protocol, (CHA, NaiveRSM, TwoPhaseCHA)):
        return _CHA_METRICS, _FULL_HISTORY_INVARIANTS
    if isinstance(protocol, CheckpointCHA):
        return _CHA_METRICS, _CHECKPOINT_INVARIANTS
    if isinstance(protocol, MajorityRSM):
        return _MAJORITY_METRICS, {}
    if isinstance(protocol, VIEmulation):
        return _VI_METRICS, _VI_INVARIANTS
    if isinstance(protocol, ThreePhaseCommit):
        return _3PC_METRICS, {}
    raise ConfigurationError(f"unknown protocol spec {protocol!r}")


def _extract(ctx: _RunContext) -> tuple[dict[str, Any], dict[str, str],
                                        dict[str, dict[str, Any]]]:
    metric_registry, invariant_registry = _registries_for(ctx.spec.protocol)
    metrics: dict[str, Any] = {}
    for name in ctx.spec.metrics.metrics:
        if name not in metric_registry:
            raise ConfigurationError(
                f"metric {name!r} is not available for "
                f"{type(ctx.spec.protocol).__name__}; known: "
                f"{sorted(metric_registry)}"
            )
        metrics[name] = metric_registry[name](ctx)

    wanted = list(ctx.spec.metrics.invariants)
    if "all" in wanted:
        expanded = [n for n in sorted(invariant_registry)
                    if n != "liveness" or ctx.spec.metrics.liveness_by is not None]
        wanted = [n for n in wanted if n != "all"] + [
            n for n in expanded if n not in wanted
        ]
    verdicts: dict[str, str] = {}
    contexts: dict[str, dict[str, Any]] = {}
    for name in wanted:
        if name not in invariant_registry:
            raise ConfigurationError(
                f"invariant {name!r} is not available for "
                f"{type(ctx.spec.protocol).__name__}; known: "
                f"{sorted(invariant_registry)}"
            )
        try:
            invariant_registry[name](ctx)
        except SpecViolation as exc:
            verdicts[name] = f"violated: {exc}"
            # The checker's reproduction context (violating instance,
            # nodes, colours) feeds the shrinker's horizon heuristics.
            contexts[name] = dict(exc.context)
        else:
            verdicts[name] = OK
    return metrics, verdicts, contexts


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------

#: Hook called with the freshly built :class:`~repro.net.Simulator`
#: before any round executes — the benchmark (``perfbench/``) uses it
#: to install timing proxies; tests use it to reach engine internals
#: mid-run.
Instrument = Callable[[Any], None]


def run(spec: ExperimentSpec, *,
        instrument: Instrument | None = None) -> ExperimentResult:
    """Run one declarative experiment and return its uniform result.

    The spec's environment components (adversary, detector, contention
    manager, clients, mobility models) are used *directly*, exactly as
    the classic per-protocol runners did — handles the caller kept stay
    live for post-run inspection.  A stateful spec therefore describes
    one run; :func:`repro.experiment.sweep.sweep` copies the spec per
    grid point, so sweeps are repeatable by construction.

    ``instrument`` is called with the built simulator (cluster and
    emulation runs; the off-channel 3PC comparator has none) before the
    first round, so callers can attach observers or timing wrappers.
    The result's :attr:`~.result.ExperimentResult.timings` holds exactly
    ``wall_s``, ``rounds`` and ``rounds_per_sec`` (only ``wall_s`` for
    the off-channel comparator, which has no rounds).

    This is a thin wrapper over :class:`ExperimentStepper` — building
    the world and driving it to completion in one call.  Callers that
    need to interleave their own work with the execution (the live
    service in :mod:`repro.service` advances the world on an asyncio
    clock) construct the stepper directly and call
    :meth:`~ExperimentStepper.step` / :meth:`~ExperimentStepper.finish`
    themselves; the two paths produce identical results.
    """
    return ExperimentStepper(spec, instrument=instrument).finish()


class ExperimentStepper:
    """Resumable execution of one :class:`ExperimentSpec`.

    Construction builds the whole world (simulator, processes, wiring)
    but runs nothing.  :meth:`step` then advances the execution by a
    number of *ticks* — communication rounds for cluster protocols,
    virtual rounds for emulations, the whole (off-channel) transaction
    for the 3PC comparator — and :meth:`finish` runs whatever remains
    and extracts the metrics and invariant verdicts into the same
    :class:`~.result.ExperimentResult` a one-shot :func:`run` returns.
    The identity suite pins stepped and one-shot executions to identical
    results (traces, outputs, metrics, verdicts).

    ``timings`` has the keys :func:`run` documents.  ``wall_s``
    accumulates only *active* execution time (construction, stepping,
    extraction), so a stepper driven on a slow external clock still
    reports the throughput of the engine rather than of the clock.
    """

    def __init__(self, spec: ExperimentSpec, *,
                 instrument: Instrument | None = None) -> None:
        spec.validate()
        if spec.faults is not None:
            # Lazy import: repro.faults.explorer sits *above* this module.
            from ..faults.compile import apply_faults

            spec = apply_faults(spec)
        #: The reference switches of this execution, resolved here once
        #: (whole-value precedence: the spec's, else the environment's)
        #: and handed down to every layer; never written back into the
        #: spec, so ``result.spec`` stays independent of the environment.
        self.switches = Switches.resolve(spec.switches)
        # One execution = one chain-interning generation: a prior run's
        # uncollected chains must never satisfy this run's interning
        # probes (see core.history.new_chain_generation).  The stepper
        # remembers its generation and re-activates it around every
        # step/finish, so several live steppers advanced in turns (the
        # multi-world service) each keep interning in their own
        # generation exactly as an uninterrupted run would.
        self.generation = new_chain_generation()
        self._active_s = 0.0
        self._result: ExperimentResult | None = None
        started = time.perf_counter()
        protocol = spec.protocol
        if isinstance(protocol, ThreePhaseCommit):
            build = _ThreePhaseExecution
        elif isinstance(protocol, VIEmulation):
            build = _EmulationExecution
        else:
            build = _ClusterExecution
        self._exec: _Execution = build(spec, self.switches, instrument)
        self._active_s += time.perf_counter() - started
        self.spec = spec

    # -- introspection -------------------------------------------------

    @property
    def total_ticks(self) -> int:
        """Ticks the workload prescribes (rounds / virtual rounds / 1)."""
        return self._exec.total_ticks

    @property
    def ticks_run(self) -> int:
        return self._exec.ticks_run

    @property
    def remaining(self) -> int:
        return self._exec.total_ticks - self._exec.ticks_run

    @property
    def finished(self) -> bool:
        return self._result is not None

    @property
    def simulator(self) -> Simulator | None:
        """The live simulator (None for the off-channel comparator)."""
        return self._exec.simulator

    @property
    def processes(self) -> Mapping[NodeId, Any]:
        """The live per-node processes (empty for the comparator)."""
        return self._exec.processes

    # -- execution -----------------------------------------------------

    def step(self, ticks: int = 1) -> int:
        """Advance up to ``ticks`` ticks; returns how many actually ran
        (fewer once the workload is exhausted)."""
        if self._result is not None:
            raise ConfigurationError(
                "this stepper already finished; build a new one to re-run"
            )
        if ticks < 0:
            raise ConfigurationError("ticks must be non-negative")
        started = time.perf_counter()
        previous = activate_chain_generation(self.generation)
        try:
            ran = self._exec.step(ticks)
        finally:
            activate_chain_generation(previous)
        self._active_s += time.perf_counter() - started
        return ran

    def finish(self) -> ExperimentResult:
        """Run any remaining ticks, extract, and return the result.

        Idempotent: subsequent calls return the same result object.
        """
        if self._result is not None:
            return self._result
        started = time.perf_counter()
        previous = activate_chain_generation(self.generation)
        try:
            self._exec.step(self.remaining)
            result = self._exec.finalize()
        finally:
            activate_chain_generation(previous)
        self._active_s += time.perf_counter() - started
        result.timings["wall_s"] = self._active_s
        if result.simulator is not None:
            rounds = float(result.simulator.current_round)
            result.timings["rounds"] = rounds
            result.timings["rounds_per_sec"] = (
                rounds / self._active_s if self._active_s > 0 else 0.0)
        self._result = result
        return result


class _Execution:
    """One protocol family's build/step/extract machinery."""

    total_ticks: int
    ticks_run: int = 0
    simulator: Simulator | None = None
    #: Read-only: a class-level default is shared by every execution
    #: that never assigns its own (the off-channel comparator).
    processes: Mapping[NodeId, Any] = MappingProxyType({})

    def step(self, ticks: int) -> int:
        raise NotImplementedError

    def finalize(self) -> ExperimentResult:
        raise NotImplementedError


class _ClusterExecution(_Execution):
    def __init__(self, spec: ExperimentSpec, switches: Switches,
                 instrument: Instrument | None = None) -> None:
        self.spec = spec
        self.switches = switches
        world: ClusterWorld = spec.world
        env = spec.environment
        protocol = spec.protocol
        sim = Simulator(
            spec=RadioSpec(r1=world.r1, r2=world.r2, rcf=world.rcf),
            adversary=env.adversary,
            detector=env.detector if env.detector is not None
            else EventuallyAccurateDetector(),
            cms={"C": env.cm if env.cm is not None
                 else LeaderElectionCM(stable_round=0)},
            crashes=env.crashes,
            record_trace=spec.keep_trace,
            switches=switches,
        )
        wire = WireStatsObserver()
        sim.add_observer(wire)

        radius = (world.cluster_radius if world.cluster_radius is not None
                  else world.r1 / 4.0)
        positions = cluster_positions(world.n, radius=radius)
        proposer_factory = getattr(protocol, "proposer_factory", None) or default_proposer

        processes: dict[NodeId, Any] = {}
        # The processes built here: one lockstep ensemble.
        cohort: list[Any] = []
        for node_id, position in enumerate(positions):
            if isinstance(protocol, CHA):
                if protocol.process_factory is not None:
                    # Custom factories keep their seed signature; the
                    # switches only drive the built-in process classes.
                    proc = protocol.process_factory(
                        propose=proposer_factory(node_id), cm_name="C")
                else:
                    proc = CHAProcess(propose=proposer_factory(node_id),
                                      cm_name="C", switches=switches)
                    cohort.append(proc)
                rpi = ROUNDS_PER_INSTANCE
            elif isinstance(protocol, CheckpointCHA):
                proc = CheckpointCHAProcess(
                    propose=proposer_factory(node_id),
                    reducer=protocol.reducer,
                    initial_state=protocol.initial_state,
                    cm_name="C", switches=switches,
                )
                cohort.append(proc)
                rpi = ROUNDS_PER_INSTANCE
            elif isinstance(protocol, NaiveRSM):
                proc = NaiveRSMProcess(propose=proposer_factory(node_id),
                                       cm_name="C", switches=switches)
                cohort.append(proc)
                rpi = ROUNDS_PER_INSTANCE
            elif isinstance(protocol, TwoPhaseCHA):
                proc = TwoPhaseChaProcess(propose=proposer_factory(node_id),
                                          switches=switches)
                cohort.append(proc)
                rpi = TWO_PHASE_ROUNDS
            elif isinstance(protocol, MajorityRSM):
                proc = MajorityRSMProcess(
                    my_index=node_id, n=world.n, is_leader=node_id == 0,
                    propose=lambda k, idx=node_id: f"m{idx}.{k:06d}",
                )
                rpi = world.n + 2
            else:  # pragma: no cover - validate() rejects this earlier
                raise ConfigurationError(f"unsupported cluster protocol {protocol!r}")
            assigned = sim.add_node(proc, position)
            if assigned != node_id:
                raise SimulationError(
                    f"simulator assigned node id {assigned}, expected {node_id}"
                )
            processes[assigned] = proc
        if not switches.core and len(cohort) > 1:
            # Lockstep nodes share one store and the batched engine steps
            # them once per round (repro.core.cha.CHAEnsemble); the dict
            # cores stay per node.
            sim.add_ensemble(CHAEnsemble(cohort))

        rounds = (spec.workload.rounds if spec.workload.rounds is not None
                  else spec.workload.instances * rpi)
        if instrument is not None:
            instrument(sim)
        self.simulator = sim
        self.processes = processes
        self.wire = wire
        self.rpi = rpi
        self.total_ticks = rounds

    def step(self, ticks: int) -> int:
        ran = min(ticks, self.total_ticks - self.ticks_run)
        sim = self.simulator
        for _ in range(ran):
            sim.step()
        self.ticks_run += ran
        return ran

    def finalize(self) -> ExperimentResult:
        spec, sim, processes = self.spec, self.simulator, self.processes
        protocol, rounds = spec.protocol, self.total_ticks
        trace = sim.trace
        ctx = _RunContext(spec=spec, switches=self.switches,
                          rounds_run=rounds, wire=self.wire,
                          sim=sim, processes=processes)
        cha_run = None
        outputs = proposals = None
        if not isinstance(protocol, MajorityRSM):
            instances = (spec.workload.instances
                         if spec.workload.instances is not None
                         else rounds // self.rpi)
            cha_run = ChaRun(simulator=sim, processes=processes, trace=trace,
                             instances=instances)
            ctx.cha_run = cha_run
            outputs, proposals = cha_run.outputs, cha_run.proposals
        metrics, verdicts, contexts = _extract(ctx)
        return ExperimentResult(
            spec=spec, metrics=metrics, invariants=verdicts,
            violation_context=contexts,
            outputs=outputs, proposals=proposals,
            trace=trace if spec.keep_trace else None,
            simulator=sim, cha_run=cha_run, processes=processes,
        )


class _EmulationExecution(_Execution):
    def __init__(self, spec: ExperimentSpec, switches: Switches,
                 instrument: Instrument | None = None) -> None:
        self.spec = spec
        self.switches = switches
        world_spec: DeployedWorld = spec.world
        protocol: VIEmulation = spec.protocol
        env = spec.environment
        world = VIWorld(
            list(world_spec.sites), dict(protocol.programs),
            r1=world_spec.r1, r2=world_spec.r2, rcf=world_spec.rcf,
            adversary=env.adversary, detector=env.detector,
            crashes=env.crashes,
            cm_stable_round=world_spec.cm_stable_round,
            min_schedule_length=world_spec.min_schedule_length,
            schedule=world_spec.schedule,
            switches=switches,
        )
        world.sim.record_trace = spec.keep_trace
        wire = WireStatsObserver()
        world.sim.add_observer(wire)

        clients: dict[NodeId, Any] = {}
        named: dict[str, Any] = {}
        for device in world_spec.devices:
            node_id = world.add_device(
                device.mobility, client=device.client,
                start_round=device.start_round,
                initially_active=device.initially_active,
            )
            if device.client is not None:
                clients[node_id] = device.client
                if device.name is not None:
                    named[device.name] = device.client

        if instrument is not None:
            instrument(world.sim)
        self.world = world
        self.wire = wire
        self.clients = clients
        self.named = named
        self.simulator = world.sim
        self.processes = dict(world.devices)
        self.total_ticks = spec.workload.virtual_rounds

    def step(self, ticks: int) -> int:
        ran = min(ticks, self.total_ticks - self.ticks_run)
        if ran:
            self.world.run_virtual_rounds(ran)
        self.ticks_run += ran
        return ran

    def finalize(self) -> ExperimentResult:
        spec, world = self.spec, self.world
        # Device membership can grow mid-run (joins); re-read it here.
        self.processes = dict(world.devices)
        ctx = _RunContext(spec=spec, switches=self.switches,
                          rounds_run=world.sim.current_round,
                          wire=self.wire, sim=world.sim, world=world,
                          processes=dict(world.devices))
        metrics, verdicts, contexts = _extract(ctx)
        return ExperimentResult(
            spec=spec, metrics=metrics, invariants=verdicts,
            violation_context=contexts,
            trace=world.sim.trace if spec.keep_trace else None,
            simulator=world.sim, world=world,
            processes=dict(world.devices),
            clients=self.clients, named_clients=self.named,
        )


class _ThreePhaseExecution(_Execution):
    #: The whole off-channel transaction is one tick.
    total_ticks = 1

    def __init__(self, spec: ExperimentSpec, switches: Switches,
                 instrument: Instrument | None = None) -> None:
        if instrument is not None:
            raise ConfigurationError(
                "the 3PC comparator runs off-channel: there is no "
                "simulator to instrument"
            )
        self.spec = spec
        self.switches = switches
        protocol: ThreePhaseCommit = spec.protocol
        self.participants = [
            Participant(pid=i, vote_yes=vote)
            for i, vote in enumerate(protocol.votes)
        ]
        self.txn = ThreePhaseCommitTxn(
            self.participants,
            lossy=protocol.lossy,
            crash_coordinator_after=protocol.crash_coordinator_after,
        )
        self.decision = None

    def step(self, ticks: int) -> int:
        ran = min(ticks, self.total_ticks - self.ticks_run)
        if ran:
            self.decision = self.txn.run()
        self.ticks_run += ran
        return ran

    def finalize(self) -> ExperimentResult:
        spec = self.spec
        ctx = _RunContext(spec=spec, switches=self.switches,
                          decision=self.decision,
                          participants=self.participants,
                          txn_log=tuple(self.txn.log))
        metrics, verdicts, contexts = _extract(ctx)
        return ExperimentResult(
            spec=spec, metrics=metrics, invariants=verdicts,
            violation_context=contexts,
            decision=self.decision, participants=self.participants,
        )
