"""The resumable `ExperimentStepper` is the seam the live service
drives: stepped and one-shot executions must produce identical results
(traces, outputs, metrics, invariant verdicts) for every protocol
family, and the stepper's bookkeeping (tick accounting, idempotent
finish, rejection of post-finish stepping) must hold."""

from __future__ import annotations

import functools
import math
import time

import pytest

from _switches import assert_corners_agree
from _worlds import cluster_spec
from repro import (
    ExperimentSpec,
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
    return cluster_spec("cha", n=6, rcf=9, instances=10, metrics=MetricsSpec(
        metrics=("rounds", "total_broadcasts", "decided_instances"),
        invariants=("validity", "agreement"))).override(**over)


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


def _stepped(spec_factory, chunk: int | None):
    """One run of ``spec_factory()``: one-shot for ``chunk=None``, else
    stepped ``chunk`` ticks at a time."""
    if chunk is None:
        return run(spec_factory())
    stepper = ExperimentStepper(spec_factory())
    while stepper.remaining:
        ran = stepper.step(chunk)
        assert ran == min(chunk, stepper.total_ticks) or ran <= chunk
    return stepper.finish()


#: (spec factory, chunk sizes) per stepped world.
STEPPED = {
    "cha": (_cha_spec, (1, 7)),
    "cha-lossy": (lambda: _cha_spec(
        world__rcf=12,
        environment__adversary=RandomLossAdversary(p_drop=0.2, seed=3)),
        (1,)),
    "majority-rsm": (lambda: cluster_spec(
        "majority-rsm", n=5, rounds=30,
        metrics=MetricsSpec(metrics=("rounds", "decided_instances"))), (4,)),
    "vi": (_vi_spec, (1, 4)),
}


@pytest.mark.parametrize("name,chunk", [
    pytest.param(name, chunk, id=f"{name}-{chunk}")
    for name, (_, chunks) in STEPPED.items() for chunk in chunks])
def test_stepped_equals_one_shot(name, chunk):
    assert_corners_agree(STEPPED[name][0], (None, chunk), run=_stepped)


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


#: One small spec per protocol family the stepper builds.
FAMILIES = {
    **{family: functools.partial(cluster_spec, family, n=4, instances=5,
                                 keep_trace=False)
       for family in ("cha", "checkpoint-cha", "two-phase-cha", "naive-rsm")},
    "majority-rsm": functools.partial(cluster_spec, "majority-rsm", n=4,
                                      rounds=12, keep_trace=False),
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
