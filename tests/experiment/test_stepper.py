"""The resumable `ExperimentStepper` is the seam the live service
drives: stepped and one-shot executions must produce identical results
(traces, outputs, metrics, invariant verdicts) for every protocol
family, and the stepper's bookkeeping (tick accounting, idempotent
finish, rejection of post-finish stepping) must hold."""

from __future__ import annotations

import math
import pickle
import time

import pytest

from repro import (
    CHA,
    CheckpointCHA,
    ClusterWorld,
    ExperimentSpec,
    MajorityRSM,
    MetricsSpec,
    NaiveRSM,
    ThreePhaseCommit,
    TwoPhaseCHA,
    VIEmulation,
    WorkloadSpec,
)
from repro.errors import ConfigurationError
from repro.experiment import DeployedWorld, DeviceSpec, ExperimentStepper, run
from repro.geometry import Point
from repro.net import RandomLossAdversary
from repro.vi.program import CounterProgram
from repro.vi.schedule import VNSite

pytestmark = pytest.mark.fast


def _cha_spec(**over) -> ExperimentSpec:
    spec = ExperimentSpec(
        protocol=CHA(),
        world=ClusterWorld(n=6, rcf=9),
        workload=WorkloadSpec(instances=10),
        metrics=MetricsSpec(
            metrics=("rounds", "total_broadcasts", "decided_instances"),
            invariants=("validity", "agreement"),
        ),
    )
    if over:
        spec = spec.override(**over)
    return spec


def _vi_spec() -> ExperimentSpec:
    sites = (VNSite(0, Point(0.0, 0.0)),)
    devices = tuple(
        DeviceSpec(mobility=Point(0.1 * math.cos(a), 0.1 * math.sin(a)))
        for a in (0.3, 1.7, 3.9)
    )
    return ExperimentSpec(
        protocol=VIEmulation(programs={0: CounterProgram()}),
        world=DeployedWorld(sites=sites, devices=devices),
        workload=WorkloadSpec(virtual_rounds=6),
        metrics=MetricsSpec(metrics=("rounds", "availability"),
                            invariants=("replica_consistency",)),
    )


def _observable(result) -> bytes:
    return pickle.dumps((result.trace, result.outputs, result.proposals,
                         result.metrics, result.invariants,
                         result.violation_context))


def _stepped(spec_factory, chunk: int) -> bytes:
    stepper = ExperimentStepper(spec_factory())
    while stepper.remaining:
        ran = stepper.step(chunk)
        assert ran == min(chunk, stepper.total_ticks) or ran <= chunk
    return _observable(stepper.finish())


@pytest.mark.parametrize("chunk", [1, 7])
def test_cha_stepped_equals_one_shot(chunk):
    one_shot = _observable(run(_cha_spec()))
    assert _stepped(_cha_spec, chunk) == one_shot


def test_cha_stepped_equals_one_shot_under_loss():
    def spec():
        return _cha_spec(
            world__rcf=12,
            environment__adversary=RandomLossAdversary(p_drop=0.2, seed=3),
        )
    assert _stepped(spec, 1) == _observable(run(spec()))


def test_majority_stepped_equals_one_shot():
    def spec():
        return ExperimentSpec(
            protocol=MajorityRSM(),
            world=ClusterWorld(n=5),
            workload=WorkloadSpec(rounds=30),
            metrics=MetricsSpec(metrics=("rounds", "decided_instances")),
        )
    assert _stepped(spec, 4) == _observable(run(spec()))


def test_emulation_stepped_equals_one_shot():
    assert _stepped(_vi_spec, 1) == _observable(run(_vi_spec()))
    assert _stepped(_vi_spec, 4) == _observable(run(_vi_spec()))


def test_three_phase_commit_goes_through_the_stepper():
    spec = ExperimentSpec(
        protocol=ThreePhaseCommit(votes=(True, True, True)),
        metrics=MetricsSpec(metrics=("decision",)),
    )
    stepper = ExperimentStepper(spec)
    assert stepper.total_ticks == 1 and stepper.simulator is None
    result = stepper.finish()
    assert result.metrics["decision"] == run(spec).metrics["decision"]


def test_three_phase_steppers_share_no_mutable_processes():
    """The comparator has no processes; what it hands out must not be a
    mapping one caller can write into every other stepper's view."""
    spec = ExperimentSpec(protocol=ThreePhaseCommit(votes=(True, True)))
    first, second = ExperimentStepper(spec), ExperimentStepper(spec)
    with pytest.raises(TypeError):
        first.processes["leak"] = object()
    assert dict(second.processes) == {}


def test_tick_accounting_and_partial_finish():
    stepper = ExperimentStepper(_cha_spec())
    assert stepper.total_ticks == 30  # 10 instances x 3 rounds
    assert stepper.step(7) == 7
    assert stepper.ticks_run == 7 and stepper.remaining == 23
    assert stepper.simulator.current_round == 7
    # Over-asking clamps to the workload.
    assert stepper.step(1000) == 23
    assert stepper.remaining == 0 and stepper.step(5) == 0
    result = stepper.finish()
    assert result.invariants["agreement"] == "ok"
    # finish() is idempotent; stepping afterwards is a usage error.
    assert stepper.finish() is result
    with pytest.raises(ConfigurationError, match="already finished"):
        stepper.step(1)
    with pytest.raises(ConfigurationError, match="non-negative"):
        ExperimentStepper(_cha_spec()).step(-1)


def test_timings_present_on_stepped_runs():
    stepper = ExperimentStepper(_cha_spec())
    stepper.step(5)
    result = stepper.finish()
    assert set(result.timings) == {"wall_s", "rounds", "rounds_per_sec"}
    assert set(run(_cha_spec()).timings) == set(result.timings)
    assert result.timings["rounds"] == 30.0
    assert result.timings["wall_s"] > 0.0
    assert result.timings["rounds_per_sec"] > 0.0


def _cluster_spec(protocol, **workload) -> ExperimentSpec:
    return ExperimentSpec(protocol=protocol, world=ClusterWorld(n=4),
                          workload=WorkloadSpec(**workload), keep_trace=False)


#: One small spec per protocol family the stepper builds.
FAMILIES = {
    "cha": lambda: _cluster_spec(CHA(), instances=5),
    "checkpoint-cha": lambda: _cluster_spec(
        CheckpointCHA(reducer=lambda s, k, v: s + 1, initial_state=0),
        instances=5),
    "two-phase-cha": lambda: _cluster_spec(TwoPhaseCHA(), instances=5),
    "naive-rsm": lambda: _cluster_spec(NaiveRSM(), instances=5),
    "majority-rsm": lambda: _cluster_spec(MajorityRSM(), rounds=12),
    "vi-emulation": _vi_spec,
    "three-phase-commit": lambda: ExperimentSpec(
        protocol=ThreePhaseCommit(votes=(True, True, False))),
}


@pytest.mark.parametrize("stepped", [False, True], ids=["one-shot", "stepped"])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_timings_hold_exactly_the_documented_keys(family, stepped):
    """``timings`` is ``{wall_s, rounds, rounds_per_sec}`` for every
    family with a simulator, and ``{wall_s}`` for the off-channel
    comparator; ``rounds`` is the simulator's clock and the rate is
    the one division of the two."""
    stepper = ExperimentStepper(FAMILIES[family]())
    if stepped:
        while stepper.remaining:
            stepper.step(2)
    result = stepper.finish()
    timings = result.timings
    assert timings["wall_s"] > 0.0
    if result.simulator is None:
        assert set(timings) == {"wall_s"}
        return
    assert set(timings) == {"wall_s", "rounds", "rounds_per_sec"}
    assert timings["rounds"] == float(result.simulator.current_round) > 0
    assert timings["rounds_per_sec"] == timings["rounds"] / timings["wall_s"]


def test_wall_s_excludes_time_between_steps():
    """A stepper driven on a slow outside clock reports engine time."""
    stepper = ExperimentStepper(_cha_spec())
    idle = 0.0
    while stepper.remaining:
        stepper.step(10)
        started = time.perf_counter()
        time.sleep(0.05)
        idle += time.perf_counter() - started
    assert 0.0 < stepper.finish().timings["wall_s"] < idle


def test_instrument_hook_fires_before_first_round():
    seen = []

    def instrument(sim):
        seen.append(sim.current_round)

    stepper = ExperimentStepper(_cha_spec(), instrument=instrument)
    assert seen == [0]
    stepper.finish()
    with pytest.raises(ConfigurationError, match="off-channel"):
        ExperimentStepper(
            ExperimentSpec(protocol=ThreePhaseCommit(votes=(True,))),
            instrument=instrument,
        )
