"""Differential verification of the batched round engine and the
indexed channel.

The batched dispatch engine (``Simulator._step_batched``, the default)
and the spatial-grid channel must be *byte-identical* to the seed
per-node loop (``Simulator._step_reference``) and the all-pairs channel
— traces, outputs, metrics, and invariant verdicts all pickle to the
same bytes — across every protocol family, under crashes, every
adversary class, fault plans and mobility churn, in every corner of
the ``engine`` × ``channel`` switches and with the history switch.
This suite is the regression gate for any change to the engine's
dispatch, its dirty-set position cache, the ensembles' ``RoundBatch``
decode sharing, or the channel's whole-run behaviour (the channel's own
randomised gate is ``test_differential.py``).
"""

from __future__ import annotations

import functools
import pickle

import pytest

from _switches import MODES, assert_corners_agree, corners
from _worlds import ENVIRONMENTS, FAMILIES, VI_METRICS, cluster_spec, vi_spec
from repro import CHA, ClusterWorld, ExperimentSpec, WorkloadSpec
from repro.experiment import MetricsSpec
from repro.faults import CrashWave, DetectorNoise, MessageStorm, plan
from repro.geometry import Point
from repro.net import (
    CrashSchedule,
    RadioSpec,
    RandomLossAdversary,
    RandomWaypointMobility,
    Simulator,
    WaypointMobility,
)

pytestmark = pytest.mark.fast


def _cluster_factory(family, env_name):
    def spec_factory():
        if family == "majority-rsm":
            return cluster_spec(family, n=7, rounds=45, metrics=MetricsSpec(
                metrics=("rounds", "total_broadcasts", "decided_instances")),
                **ENVIRONMENTS[env_name]())
        return cluster_spec(family, n=7, instances=15, metrics=MetricsSpec(
            metrics=("rounds", "total_broadcasts"), invariants=("all",)),
            **ENVIRONMENTS[env_name]())
    return spec_factory


@pytest.mark.parametrize("family", list(FAMILIES))
@pytest.mark.parametrize("env_name", ["benign", "benign-wide", "lossy",
                                      "crashes+noise", "targeted+noise",
                                      "bursty"])
def test_engines_byte_identical_per_family(family, env_name):
    assert_corners_agree(_cluster_factory(family, env_name), MODES)


@pytest.mark.parametrize("history_ref", [False, True],
                         ids=["chain-history", "reference-history"])
def test_engines_byte_identical_with_history_switch(history_ref):
    """The engine switch composes with the history switch: all four
    corners of (engine, history) produce identical bytes."""
    def spec_factory():
        return cluster_spec(
            "cha", n=6, rcf=20, instances=12,
            metrics=MetricsSpec(invariants=("all",)),
            adversary=RandomLossAdversary(p_drop=0.25, p_false=0.2, seed=13))
    assert_corners_agree(spec_factory, corners("engine", history=history_ref))


def test_engines_byte_identical_under_fault_plan():
    """A compiled FaultPlan (crash wave + message storm + detector
    noise) must not distinguish the engines either."""
    def spec_factory():
        return ExperimentSpec(
            protocol=CHA(),
            world=ClusterWorld(n=8),
            workload=WorkloadSpec(instances=16),
            metrics=MetricsSpec(invariants=("all",)),
            faults=plan(
                CrashWave(fraction=0.25, horizon=20),
                MessageStorm(intensity=0.4, until=24),
                DetectorNoise(p_false=0.2, until=18),
                seed=77,
            ),
        )
    assert_corners_agree(spec_factory, MODES)


def test_engines_byte_identical_vi_emulation():
    assert_corners_agree(functools.partial(vi_spec, 8, metrics=VI_METRICS),
                         MODES)


# ----------------------------------------------------------------------
# Mobility churn on a bare simulator
# ----------------------------------------------------------------------

class _Chatter:
    """Minimal process: broadcasts its id every few rounds."""

    def __init__(self, me):
        self.me = me

    def contend(self, r):
        return None

    def send(self, r, active):
        return ("chat", self.me, r) if (r + self.me) % 3 == 0 else None

    def deliver(self, r, messages, collision):
        pass


def _roaming(i):
    return RandomWaypointMobility(Point(i * 0.3 - 2.0, 0.0),
                                  arena=(-3, -3, 3, 3), speed=0.15,
                                  seed=100 + i)


def _mixed(i):
    """Roamers, walkers that walk a short leg and park (the dirty set's
    clean case after a dirty prefix), and static nodes."""
    if i % 3 == 0:
        return _roaming(i)
    if i % 3 == 1:
        return WaypointMobility(Point(i * 0.3 - 2.0, 0.0),
                                [Point(i * 0.3 - 2.0, 0.8)], speed=0.2)
    return Point(i * 0.3 - 2.0, 0.1)


def _chatter_trace(mobility_of, switches):
    sim = Simulator(
        spec=RadioSpec(r1=1.0, r2=1.5, rcf=10),
        adversary=RandomLossAdversary(p_drop=0.25, seed=3),
        crashes=CrashSchedule.of({2: 25}),
        switches=switches,
    )
    for i in range(12):
        sim.add_node(_Chatter(i), mobility_of(i),
                     start_round=0 if i < 9 else 5)
    sim.run(40)
    return sim.trace


@pytest.mark.parametrize("mobility_of", [_roaming, _mixed],
                         ids=["roaming", "mixed"])
def test_engines_byte_identical_under_mobility(mobility_of):
    """Late joiners and a crash among moving nodes: the dirty-set
    position cache and the channel's index updates must be invisible in
    the trace bytes."""
    assert_corners_agree(mobility_of, MODES, run=_chatter_trace,
                         read=pickle.dumps)
