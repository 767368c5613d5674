"""Execute an :class:`~repro.experiment.spec.ExperimentSpec`.

:func:`run` is the one entrypoint behind every protocol the library
implements.  It builds the world, wires the environment, drives the
execution, and extracts the requested metrics (collected online through
the simulator's observer hook wherever possible) and invariant verdicts
into a uniform :class:`~repro.experiment.result.ExperimentResult`.

Metric and invariant names are resolved against per-family registries;
asking for a metric a protocol cannot produce is a configuration error,
not a silent ``None``.  Every extractor reads the result plus the
family's observer: the :class:`WireStatsObserver` on the channel, or
the off-channel 3PC transaction itself (its phase log).
"""

from __future__ import annotations

import time
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
    cluster_positions,
    default_proposer,
)

#: The full-history cluster family: every output is an ``(instance,
#: History | BOTTOM)`` row (the service drives exactly these).
FULL_HISTORY_PROTOCOLS = (CHA, NaiveRSM, TwoPhaseCHA)
#: Every family whose nodes run a CHAP core: outputs, proposals, colours.
CHA_PROTOCOLS = FULL_HISTORY_PROTOCOLS + (CheckpointCHA,)


def rounds_per_instance(protocol: Any, n: int) -> int:
    """Real rounds one agreement instance takes on an ``n``-node cluster."""
    if isinstance(protocol, TwoPhaseCHA):
        return TWO_PHASE_ROUNDS
    if isinstance(protocol, MajorityRSM):
        return n + 2
    return ROUNDS_PER_INSTANCE


# ----------------------------------------------------------------------
# Metric registries
# ----------------------------------------------------------------------

#: ``(result, observer) -> value``.
Extractor = Callable[[ExperimentResult, Any], Any]

_WIRE_METRICS: dict[str, Extractor] = {
    "rounds": lambda r, wire: wire.rounds,
    "total_broadcasts": lambda r, wire: wire.total_broadcasts,
    "max_message_size": lambda r, wire: wire.max_message_size,
    "mean_message_size": lambda r, wire: wire.mean_message_size,
    "collision_flags": lambda r, wire: dict(wire.collision_flags),
}


def _decided_by_node(r: ExperimentResult, wire: Any) -> dict[NodeId, int]:
    return {
        node: len(log) - log_bottoms(log)
        for node, log in r.outputs.items()
    }


def _throughput_by_node(r: ExperimentResult, wire: Any) -> dict[NodeId, float]:
    rounds = r.simulator.current_round
    return {
        node: (decided / rounds if rounds else 0.0)
        for node, decided in _decided_by_node(r, wire).items()
    }


def _bottom_rate_by_node(r: ExperimentResult, wire: Any) -> dict[NodeId, float]:
    return {
        node: (log_bottoms(log) / len(log) if log else 0.0)
        for node, log in r.outputs.items()
    }


def _color_divergence(r: ExperimentResult, wire: Any) -> dict[int, int]:
    from ..analysis.metrics import color_divergence_histogram

    return color_divergence_histogram(r)


def _convergence_instance(r: ExperimentResult, wire: Any) -> Any:
    from ..analysis.metrics import convergence_instance

    return convergence_instance(r)


_CHA_METRICS: dict[str, Extractor] = {
    **_WIRE_METRICS,
    "decided_instances": _decided_by_node,
    "decision_throughput": _throughput_by_node,
    "bottom_rate": _bottom_rate_by_node,
    "color_divergence": _color_divergence,
    "convergence_instance": _convergence_instance,
    "resident_entries": lambda r, wire: {
        node: proc.core.resident_entries()
        for node, proc in r.processes.items()
    },
}

_MAJORITY_METRICS: dict[str, Extractor] = {
    **_WIRE_METRICS,
    "decided_instances": lambda r, wire: {
        node: proc.decided_count for node, proc in r.processes.items()
    },
}

_VI_METRICS: dict[str, Extractor] = {
    **_WIRE_METRICS,
    "availability": lambda r, wire: {
        site.vn_id: r.world.availability(site.vn_id)
        for site in r.world.sites
    },
    "emulation_gaps": lambda r, wire: {
        site.vn_id: r.world.emulation_gaps(site.vn_id)
        for site in r.world.sites
    },
    "schedule_length": lambda r, wire: r.world.schedule.length,
    "rounds_per_virtual_round": lambda r, wire: (
        r.simulator.current_round / r.world.virtual_rounds_run
        if r.world.virtual_rounds_run else 0.0
    ),
}

_3PC_METRICS: dict[str, Extractor] = {
    "decision": lambda r, txn: r.decision.value,
    "state_spread": lambda r, txn: state_spread(r.participants),
    "log": lambda r, txn: tuple(txn.log),
}


# ----------------------------------------------------------------------
# Invariant registries
# ----------------------------------------------------------------------

def _inv_validity(r: ExperimentResult, wire: Any) -> None:
    check_validity(r.outputs, r.proposals)


def _inv_agreement(r: ExperimentResult, wire: Any) -> None:
    check_agreement(r.outputs, switches=r.simulator.switches)


def _inv_liveness(r: ExperimentResult, wire: Any) -> None:
    by = r.spec.metrics.liveness_by
    if by is None:
        raise ConfigurationError(
            "the liveness invariant needs MetricsSpec.liveness_by"
        )
    survivors = r.surviving_nodes()
    outputs = r.outputs
    check_liveness(
        {node: outputs[node] for node in survivors},
        by_instance=by, alive=survivors,
    )


def _inv_replica_consistency(r: ExperimentResult, wire: Any) -> None:
    for site in r.world.sites:
        try:
            r.world.check_replica_consistency(site.vn_id)
        except AssertionError as exc:
            raise SpecViolation(str(exc)) from None


def _inv_vi_liveness(r: ExperimentResult, wire: Any) -> None:
    """Every virtual node is live in every virtual round from
    ``liveness_by`` (a virtual-round index) onward."""
    by = r.spec.metrics.liveness_by
    if by is None:
        raise ConfigurationError(
            "the liveness invariant needs MetricsSpec.liveness_by "
            "(a virtual-round index for emulations)"
        )
    for site in r.world.sites:
        outcomes = r.world.outcomes[site.vn_id]
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


_FULL_HISTORY_INVARIANTS: dict[str, Extractor] = {
    "validity": _inv_validity,
    "agreement": _inv_agreement,
    "liveness": _inv_liveness,
    # The glass-box lemma checkers come from the analysis registry, the
    # single source of truth shared with ad-hoc debugging of a result
    # (repro.analysis.collect_violations).
    **{name: (lambda r, wire, checker=checker: checker(r))
       for name, checker in GLASS_BOX_CHECKERS.items()},
}

#: Checkpoint outputs are (checkpoint, suffix) pairs, not full histories,
#: so only the glass-box colour/pointer checkers apply.
_CHECKPOINT_INVARIANTS = {
    name: _FULL_HISTORY_INVARIANTS[name]
    for name in ("property4", "lemma5", "prev_pointer")
}

_VI_INVARIANTS: dict[str, Extractor] = {
    "replica_consistency": _inv_replica_consistency,
    "liveness": _inv_vi_liveness,
}


def _registries_for(protocol) -> tuple[dict, dict]:
    if isinstance(protocol, FULL_HISTORY_PROTOCOLS):
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


def _extract(r: ExperimentResult, observer: Any) -> None:
    """Fill ``r``'s metrics and invariant verdicts from the registries."""
    spec = r.spec
    metric_registry, invariant_registry = _registries_for(spec.protocol)
    for name in spec.metrics.metrics:
        if name not in metric_registry:
            raise ConfigurationError(
                f"metric {name!r} is not available for "
                f"{type(spec.protocol).__name__}; known: "
                f"{sorted(metric_registry)}"
            )
        r.metrics[name] = metric_registry[name](r, observer)

    wanted = list(spec.metrics.invariants)
    if "all" in wanted:
        expanded = [n for n in sorted(invariant_registry)
                    if n != "liveness" or spec.metrics.liveness_by is not None]
        wanted = [n for n in wanted if n != "all"] + [
            n for n in expanded if n not in wanted
        ]
    for name in wanted:
        if name not in invariant_registry:
            raise ConfigurationError(
                f"invariant {name!r} is not available for "
                f"{type(spec.protocol).__name__}; known: "
                f"{sorted(invariant_registry)}"
            )
        try:
            invariant_registry[name](r, observer)
        except SpecViolation as exc:
            r.invariants[name] = f"violated: {exc}"
            # The checker's reproduction context (violating instance,
            # nodes, colours) feeds the shrinker's horizon heuristics.
            r.violation_context[name] = dict(exc.context)
        else:
            r.invariants[name] = OK


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
    manager, clients, mobility models) are used *directly* — handles the
    caller kept stay live for post-run inspection.  A stateful spec therefore describes
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

    Each protocol family supplies only a build (``_build_cluster``,
    ``_build_emulation``, ``_build_three_phase``: the result's handles,
    the family's observer, its advance and its tick count); the tick
    bookkeeping lives here once.

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
        #: The reference switches of this execution, handed down to
        #: every layer.
        self.switches = spec.switches
        # One execution = one chain-interning generation: a prior run's
        # uncollected chains must never satisfy this run's interning
        # probes (see core.history.new_chain_generation).  The stepper
        # remembers its generation and re-activates it around every
        # step/finish, so several live steppers advanced in turns (the
        # multi-world service) each keep interning in their own
        # generation exactly as an uninterrupted run would.
        self.generation = new_chain_generation()
        self._active_s = 0.0
        self.finished = False
        self.ticks_run = 0
        started = time.perf_counter()
        protocol = spec.protocol
        if isinstance(protocol, ThreePhaseCommit):
            build = _build_three_phase
        elif isinstance(protocol, VIEmulation):
            build = _build_emulation
        else:
            build = _build_cluster
        #: The result being filled: its handles exist from here on, its
        #: metrics and verdicts once :meth:`finish` extracted them.
        self._result, self._observer, self._advance, self.total_ticks = (
            build(spec, self.switches, instrument))
        self._active_s += time.perf_counter() - started
        self.spec = spec

    # -- introspection -------------------------------------------------

    @property
    def remaining(self) -> int:
        return self.total_ticks - self.ticks_run

    @property
    def simulator(self) -> Simulator | None:
        """The live simulator (None for the off-channel comparator)."""
        return self._result.simulator

    @property
    def processes(self) -> Mapping[NodeId, Any]:
        """A read-only view of the live per-node processes (empty for
        the comparator)."""
        return MappingProxyType(self._result.processes)

    # -- execution -----------------------------------------------------

    def _run(self, ticks: int) -> int:
        ran = min(ticks, self.remaining)
        if ran:
            self._advance(ran)
        self.ticks_run += ran
        return ran

    def step(self, ticks: int = 1) -> int:
        """Advance up to ``ticks`` ticks; returns how many actually ran
        (fewer once the workload is exhausted)."""
        if self.finished:
            raise ConfigurationError(
                "this stepper already finished; build a new one to re-run"
            )
        if ticks < 0:
            raise ConfigurationError("ticks must be non-negative")
        started = time.perf_counter()
        previous = activate_chain_generation(self.generation)
        try:
            ran = self._run(ticks)
        finally:
            activate_chain_generation(previous)
        self._active_s += time.perf_counter() - started
        return ran

    def finish(self) -> ExperimentResult:
        """Run any remaining ticks, extract, and return the result.

        Idempotent: subsequent calls return the same result object.
        """
        result = self._result
        if self.finished:
            return result
        started = time.perf_counter()
        previous = activate_chain_generation(self.generation)
        try:
            self._run(self.remaining)
            protocol = self.spec.protocol
            if isinstance(protocol, VIEmulation):
                # Device membership can grow mid-run (joins); re-read it.
                result.processes = dict(result.world.devices)
            elif isinstance(protocol, CHA_PROTOCOLS):
                processes = result.processes
                result.outputs = {node: proc.outputs
                                  for node, proc in processes.items()}
                result.proposals = {node: proc.proposals_made
                                    for node, proc in processes.items()}
            _extract(result, self._observer)
        finally:
            activate_chain_generation(previous)
        self._active_s += time.perf_counter() - started
        result.timings["wall_s"] = self._active_s
        if result.simulator is not None:
            rounds = float(result.simulator.current_round)
            result.timings["rounds"] = rounds
            result.timings["rounds_per_sec"] = (
                rounds / self._active_s if self._active_s > 0 else 0.0)
        self.finished = True
        return result


#: A family's build: ``(spec, switches, instrument) -> (result handles,
#: observer, advance(ticks), total ticks)``.
_Built = tuple[ExperimentResult, Any, Callable[[int], None], int]


def _build_cluster(spec: ExperimentSpec, switches: Switches,
                   instrument: Instrument | None) -> _Built:
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
    processes: dict[NodeId, Any] = {}
    for node_id, position in enumerate(positions):
        proc = _cluster_process(protocol, node_id, world.n, switches)
        assigned = sim.add_node(proc, position)
        if assigned != node_id:
            raise SimulationError(
                f"simulator assigned node id {assigned}, expected {node_id}"
            )
        processes[assigned] = proc
    if (isinstance(protocol, CHA_PROTOCOLS) and not switches.core
            and len(processes) > 1):
        # Lockstep nodes share one store and the batched engine steps
        # them once per round (repro.core.cha.CHAEnsemble); the dict
        # cores stay per node.
        sim.add_ensemble(CHAEnsemble(list(processes.values())))

    workload = spec.workload
    rpi = rounds_per_instance(protocol, world.n)
    rounds = (workload.rounds if workload.rounds is not None
              else workload.instances * rpi)
    if instrument is not None:
        instrument(sim)

    def advance(ticks: int) -> None:
        step = sim.step
        for _ in range(ticks):
            step()

    result = ExperimentResult(
        spec=spec, metrics={}, invariants={},
        trace=sim.trace if spec.keep_trace else None,
        simulator=sim, processes=processes,
        instances=(workload.instances if workload.instances is not None
                   else rounds // rpi),
    )
    return result, wire, advance, rounds


def _cluster_process(protocol: Any, node_id: NodeId, n: int,
                     switches: Switches) -> Any:
    """Node ``node_id``'s process for a cluster protocol."""
    if isinstance(protocol, MajorityRSM):
        return MajorityRSMProcess(
            my_index=node_id, n=n, is_leader=node_id == 0,
            propose=lambda k, idx=node_id: f"m{idx}.{k:06d}",
        )
    propose = (protocol.proposer_factory or default_proposer)(node_id)
    if isinstance(protocol, CheckpointCHA):
        return CheckpointCHAProcess(
            propose=propose, reducer=protocol.reducer,
            initial_state=protocol.initial_state,
            cm_name="C", switches=switches,
        )
    if isinstance(protocol, TwoPhaseCHA):
        return TwoPhaseChaProcess(propose=propose, switches=switches)
    if isinstance(protocol, NaiveRSM):
        return NaiveRSMProcess(propose=propose, cm_name="C",
                               switches=switches)
    if isinstance(protocol, CHA):
        return CHAProcess(propose=propose, cm_name="C", switches=switches)
    raise ConfigurationError(  # pragma: no cover - validate() rejects it
        f"unsupported cluster protocol {protocol!r}")


def _build_emulation(spec: ExperimentSpec, switches: Switches,
                     instrument: Instrument | None) -> _Built:
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
    result = ExperimentResult(
        spec=spec, metrics={}, invariants={},
        trace=world.sim.trace if spec.keep_trace else None,
        simulator=world.sim, world=world,
        processes=dict(world.devices),
        clients=clients, named_clients=named,
    )
    return (result, wire, world.run_virtual_rounds,
            spec.workload.virtual_rounds)


def _build_three_phase(spec: ExperimentSpec, switches: Switches,
                       instrument: Instrument | None) -> _Built:
    if instrument is not None:
        raise ConfigurationError(
            "the 3PC comparator runs off-channel: there is no "
            "simulator to instrument"
        )
    protocol: ThreePhaseCommit = spec.protocol
    participants = [
        Participant(pid=i, vote_yes=vote)
        for i, vote in enumerate(protocol.votes)
    ]
    txn = ThreePhaseCommitTxn(
        participants,
        lossy=protocol.lossy,
        crash_coordinator_after=protocol.crash_coordinator_after,
    )
    result = ExperimentResult(spec=spec, metrics={}, invariants={},
                              participants=participants)

    def advance(ticks: int) -> None:
        # The whole off-channel transaction is one tick.
        result.decision = txn.run()

    return result, txn, advance, 1
