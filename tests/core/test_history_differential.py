"""Whole-run differential verification of the history engines.

For every CHA-family protocol (plain, checkpoint, the two-phase
ablation, the naive full-history RSM) and the VI emulation, the run is
executed in every combination of

* **history engine**: incremental chain fold vs the seed re-walking
  reference (the ``history`` switch), and
* **simulation engine**: batched engine + indexed channel vs seed loop
  + all-pairs reference channel (the ``engine`` and ``channel``
  switches, flipped together),

and the pickled observables — the full wire trace, every node's output
log (histories pickle canonically, so chain- and dict-backed forms are
byte-identical), proposals, metrics and invariant verdicts — must be
byte-for-byte equal to the all-reference run.  This is the regression
gate for any future change to the fold, the chain interning, or the
spec checkers' short-circuits.
"""

from __future__ import annotations

import dataclasses

import pytest

from _switches import observables, run_with
from repro import CHA, ClusterWorld, ExperimentSpec, MetricsSpec, WorkloadSpec
from repro.experiment import (
    CheckpointCHA,
    DeployedWorld,
    DeviceSpec,
    EnvironmentSpec,
    NaiveRSM,
    TwoPhaseCHA,
    VIEmulation,
)
from repro.geometry import Point
from repro.net import (
    Crash,
    CrashPoint,
    CrashSchedule,
    RandomLossAdversary,
    WindowAdversary,
)
from repro.switches import Switches
from repro.vi.program import CounterProgram
from repro.vi.schedule import VNSite

pytestmark = pytest.mark.fast

#: (history_reference, engine_reference) — the all-reference corner is
#: the baseline the other three must match byte-for-byte.
MODES = [(True, True), (True, False), (False, True), (False, False)]


def stack(*, history: bool, engine: bool, core: bool = False) -> Switches:
    """``engine`` flips the round loop and the channel together."""
    return Switches(history=history, engine=engine, channel=engine,
                    core=core)


def _count_reducer(state, k, value):
    return (state or 0) + 1


def _cluster_env():
    return EnvironmentSpec(
        adversary=WindowAdversary(
            RandomLossAdversary(p_drop=0.25, p_false=0.2, seed=13), until=30),
        crashes=CrashSchedule([Crash(4, 20, CrashPoint.AFTER_SEND)]),
    )


def _cha_spec():
    return ExperimentSpec(
        protocol=CHA(),
        world=ClusterWorld(n=6, rcf=24),
        environment=_cluster_env(),
        workload=WorkloadSpec(instances=14),
        metrics=MetricsSpec(metrics=("decided_instances", "bottom_rate"),
                            invariants=("validity", "agreement")),
    )


def _checkpoint_spec():
    return ExperimentSpec(
        protocol=CheckpointCHA(reducer=_count_reducer, initial_state=0),
        world=ClusterWorld(n=5, rcf=18),
        environment=_cluster_env(),
        workload=WorkloadSpec(instances=14),
        metrics=MetricsSpec(metrics=("decided_instances",),
                            invariants=("lemma5", "prev_pointer")),
    )


def _two_phase_spec():
    return ExperimentSpec(
        protocol=TwoPhaseCHA(),
        world=ClusterWorld(n=5, rcf=12),
        environment=_cluster_env(),
        workload=WorkloadSpec(instances=14),
        metrics=MetricsSpec(metrics=("decided_instances",),
                            invariants=("validity", "agreement")),
    )


def _naive_rsm_spec():
    # The naive RSM puts the *entire computed history* in every ballot,
    # so here the history engines differ on the wire, not just in
    # outputs: any fold divergence corrupts the trace itself.
    return ExperimentSpec(
        protocol=NaiveRSM(),
        world=ClusterWorld(n=5, rcf=12),
        environment=_cluster_env(),
        workload=WorkloadSpec(instances=12),
        metrics=MetricsSpec(metrics=("max_message_size",),
                            invariants=("validity", "agreement")),
    )


def _vi_spec():
    sites = (VNSite(0, Point(0.0, 0.0)), VNSite(1, Point(0.5, 0.0)))
    devices = tuple(
        DeviceSpec(mobility=Point(site.location.x + dx, 0.1 * (j + 1)))
        for site in sites
        for j, dx in enumerate((-0.1, 0.1))
    )
    return ExperimentSpec(
        protocol=VIEmulation(programs={0: CounterProgram(),
                                       1: CounterProgram()}),
        world=DeployedWorld(sites=sites, devices=devices),
        environment=EnvironmentSpec(
            crashes=CrashSchedule([Crash(1, 40, CrashPoint.AFTER_SEND)]),
        ),
        workload=WorkloadSpec(virtual_rounds=8),
        metrics=MetricsSpec(metrics=("availability", "emulation_gaps"),
                            invariants=("replica_consistency",)),
    )


SPECS = {
    "cha": _cha_spec,
    "checkpoint-cha": _checkpoint_spec,
    "two-phase-cha": _two_phase_spec,
    "naive-rsm": _naive_rsm_spec,
    "vi": _vi_spec,
}


@pytest.mark.parametrize("name", sorted(SPECS))
def test_history_switch_combinations_byte_identical(name):
    spec_factory = SPECS[name]
    baseline, *others = (
        observables(run_with(spec_factory(),
                             stack(history=history_ref, engine=engine_ref)))
        for history_ref, engine_ref in MODES)
    for mode, got in zip(MODES[1:], others):
        assert got == baseline, (name, mode)


def test_spec_switch_reaches_every_core():
    """The spec's ``history`` switch pins each constructed core."""
    for factory in (_cha_spec, _checkpoint_spec, _two_phase_spec):
        spec = dataclasses.replace(factory(), keep_trace=False)
        result = run_with(spec, Switches(history=True))
        assert all(proc.core.reference_history
                   for proc in result.processes.values())
    vi = dataclasses.replace(_vi_spec(), keep_trace=False)
    result = run_with(vi, Switches(history=True))
    replicas = [dev.replica for dev in result.processes.values()
                if dev.replica is not None]
    assert replicas
    assert all(rep.core.reference_history for rep in replicas)
