"""The resumable `ExperimentStepper` is the seam the live service
drives: stepped and one-shot executions must produce identical results
(traces, outputs, metrics, invariant verdicts) for every protocol
family, and the stepper's bookkeeping (tick accounting, idempotent
finish, rejection of post-finish stepping) must hold."""

from __future__ import annotations

import math
import pickle

import pytest

from repro import (
    CHA,
    ClusterWorld,
    ExperimentSpec,
    MajorityRSM,
    MetricsSpec,
    ThreePhaseCommit,
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
    assert result.timings["rounds"] == 30.0
    assert result.timings["wall_s"] > 0.0
    assert result.timings["rounds_per_sec"] > 0.0


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
