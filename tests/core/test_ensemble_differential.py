"""Ensemble dispatch against per-node dispatch, end to end.

The batched round engine steps a cluster's lockstep cohort through one
:class:`~repro.core.cha.CHAEnsemble` call per round; the reference
engine (``Switches(engine=True)``) ignores ensembles and calls every
process on its own, which forks every member out of the shared store at
its first step.  Each world here runs once per engine and the two
results must pickle byte-identically (trace, outputs, proposals,
metrics, verdicts), for every cluster class that forms a cohort, with
worlds that push members off the common path: crashes before and after
sending, seeded losses before ``rcf``, spurious collisions before the
detector's accuracy round, a node powering on late and a node added
mid-run (neither is a member).  Two worlds spread the cluster over a
circle of radius 0.6: every pair is within ``R2`` but some are beyond
``R1``, so at the leader's ballot its far receivers get a flag and fork
while the near ones stay on the store; in the second a late node (a
lone unit) sits in the leader's far class too.

Marked ``core_differential`` so the PR pre-gate runs it with the rest of
the slotted core's byte-identity gate.
"""

from __future__ import annotations

import pickle

import pytest

from _switches import observables
from repro import ClusterWorld, ExperimentSpec, Switches, WorkloadSpec
from repro.baselines.naive_rsm import NaiveRSMProcess
from repro.baselines.two_phase_cha import TwoPhaseChaProcess
from repro.core import CHAProcess
from repro.core.checkpoint import CheckpointCHAProcess
from repro.detectors import EventuallyAccurateDetector
from repro.experiment import (CHA, CheckpointCHA, EnvironmentSpec, NaiveRSM,
                              TwoPhaseCHA)
from repro.experiment.runner import ExperimentStepper
from repro.geometry import Point
from repro.net import (Crash, CrashPoint, CrashSchedule, NoiseBurstAdversary,
                       RandomLossAdversary)

pytestmark = [pytest.mark.fast, pytest.mark.core_differential]


def _reducer(state, k, value):
    # An int state: a cohort's members share the state object the fold
    # returns, where forked members hold equal copies, and pickle keeps
    # that sharing apart for containers but never for ints.
    return (state * 1_000_003 + k * 7 + len(repr(value))) % (1 << 61)


#: kind -> (protocol spec, rounds per instance, a lone process for a joiner)
_KINDS = {
    "cha": (CHA(), 3, lambda sw, start: CHAProcess(
        propose=lambda k: f"j.{k}", start_round=start, switches=sw)),
    "checkpoint-cha": (
        CheckpointCHA(reducer=_reducer, initial_state=0), 3,
        lambda sw, start: CheckpointCHAProcess(
            propose=lambda k: f"j.{k}", reducer=_reducer, initial_state=0,
            start_round=start, switches=sw)),
    "naive-rsm": (NaiveRSM(), 3, lambda sw, start: NaiveRSMProcess(
        propose=lambda k: f"j.{k}", start_round=start, switches=sw)),
    "two-phase-cha": (TwoPhaseCHA(), 2, lambda sw, start: TwoPhaseChaProcess(
        propose=lambda k: f"j.{k}", switches=sw)),
}


def _environment(world: str, n: int) -> tuple[EnvironmentSpec, int]:
    """A fresh environment (stateful adversaries are consumed by a run)
    and the world's ``rcf``."""
    last = n - 1
    if world == "before-send":
        return EnvironmentSpec(crashes=CrashSchedule(
            [Crash(last, 7)] + ([Crash(1, 11)] if n > 2 else []))), 0
    if world == "after-send":
        # The leader dies right after its ballot escapes.
        return EnvironmentSpec(crashes=CrashSchedule(
            [Crash(0, 6, CrashPoint.AFTER_SEND)]
            + ([Crash(last, 10, CrashPoint.AFTER_SEND)] if n > 2 else []))), 0
    if world == "lossy":
        return EnvironmentSpec(adversary=RandomLossAdversary(
            p_drop=0.3, seed=n)), 12
    if world == "false-collisions":
        return EnvironmentSpec(
            adversary=NoiseBurstAdversary(p_false=0.2, seed=n),
            detector=EventuallyAccurateDetector(racc=10)), 0
    return EnvironmentSpec(), 0


def _run(kind: str, world: str, n: int, engine: bool, keep_trace: bool):
    protocol, rpi, joiner = _KINDS[kind]
    switches = Switches(engine=engine)
    env, rcf = _environment(world, n)
    wide = world.startswith("wide")
    spec = ExperimentSpec(protocol=protocol,
                          world=ClusterWorld(n=n, rcf=rcf, cluster_radius=(
                              0.6 if wide else None)),
                          environment=env, workload=WorkloadSpec(instances=8),
                          keep_trace=keep_trace, switches=switches)
    late = []

    def instrument(sim):
        if world.endswith("late-start"):
            # On the wide circle the leader, node 0, sits at (0.6, 0).
            late.append(sim.process_of(sim.add_node(
                joiner(switches, 3 * rpi), Point(-0.6 if wide else 0.0, 0.0),
                start_round=3 * rpi)))

    stepper = ExperimentStepper(spec, instrument=instrument)
    if world == "mid-run-join":
        stepper.step(4 * rpi)
        sim = stepper.simulator
        late.append(sim.process_of(sim.add_node(
            joiner(switches, 4 * rpi), Point(0.0, 0.0),
            start_round=sim.current_round)))
    result = stepper.finish()
    extra = [(list(p.outputs), p.proposals_made) for p in late]
    return observables(result) + pickle.dumps(extra), result


@pytest.mark.parametrize("world", ["lockstep", "before-send", "after-send",
                                   "lossy", "false-collisions", "late-start",
                                   "mid-run-join", "wide", "wide-late-start"])
@pytest.mark.parametrize("n", [2, 3, 20])
@pytest.mark.parametrize("kind", sorted(_KINDS))
def test_ensemble_matches_per_node_dispatch(kind, n, world):
    keep_trace = world != "lockstep"
    fast, result = _run(kind, world, n, False, keep_trace)
    reference, _ = _run(kind, world, n, True, keep_trace)
    assert fast == reference
    if world == "lockstep":
        # Nobody left the common path: one shared store throughout.
        stores = {id(p.core._c) for p in result.processes.values()}
        assert len(stores) == 1


@pytest.mark.parametrize("kind", sorted(_KINDS))
def test_trace_pickles_identically(kind):
    """With ``keep_trace=True`` the wire objects are not pooled: the
    trace pickles alike whichever engine dispatched the members."""
    fast = _run(kind, "lockstep", 5, False, True)[1]
    reference = _run(kind, "lockstep", 5, True, True)[1]
    assert pickle.dumps(fast.trace) == pickle.dumps(reference.trace)
    assert len(fast.trace) == 8 * _KINDS[kind][1]
