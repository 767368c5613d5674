"""Count gate: a healed CHAP cluster runs as one store again.

The cha-lossy shape at reduced length: 100 nodes, 10 % seeded loss
until ``rcf`` (three fifths of the run), no crashes.  Every member is
forked onto a private store during the lossy prefix; past ``rcf`` the
ensemble merges them back within a constant number of instances, after
which each round steps the one store once (one ``_deliver_group`` call
per round).  Before ``rcf`` no instance has equal input everywhere, so
the ensemble never even tries to merge, and the loss-only adversary is
never asked for a false collision.
"""

from __future__ import annotations

import pytest

from repro import CHA, ClusterWorld, ExperimentSpec, WorkloadSpec
from repro.core import CHAProcess, slotted
from repro.experiment import EnvironmentSpec
from repro.experiment.runner import ExperimentStepper
from repro.net import RandomLossAdversary

pytestmark = pytest.mark.fast

INSTANCES = 100
RCF = 3 * (INSTANCES * 3 // 5)


def test_a_lossy_cluster_merges_back_into_one_store(monkeypatch):
    calls = {"deliver": 0, "false": 0}
    attempts: list[int] = []
    deliver, rejoin = CHAProcess._deliver_group, slotted.rejoin

    def counted_deliver(self, *args):
        calls["deliver"] += 1
        return deliver(self, *args)

    def counted_false(self, r, node):
        calls["false"] += 1
        return False

    monkeypatch.setattr(CHAProcess, "_deliver_group", counted_deliver)
    monkeypatch.setattr(RandomLossAdversary, "false_collision", counted_false)
    monkeypatch.setattr(slotted, "rejoin", lambda lead, cores: (
        attempts.append(stepper.simulator.current_round),
        rejoin(lead, cores))[1])
    stepper = ExperimentStepper(ExperimentSpec(
        protocol=CHA(), world=ClusterWorld(n=100, rcf=RCF),
        environment=EnvironmentSpec(
            adversary=RandomLossAdversary(p_drop=0.10, seed=1)),
        workload=WorkloadSpec(instances=INSTANCES), keep_trace=False))
    cores = [proc.core for proc in stepper.processes.values()]

    stepper.step(RCF)
    assert attempts == []
    assert len({id(core._c) for core in cores}) == 100   # all forked
    merged = None
    for r in range(RCF, 3 * INSTANCES):
        stepper.step(1)
        if merged is None and len({id(core._c) for core in cores}) == 1:
            merged = r
            calls["deliver"] = 0
    assert merged is not None and merged < RCF + 3 * 3
    assert calls["deliver"] == 3 * INSTANCES - 1 - merged
    assert calls["false"] == 0
    result = stepper.finish()
    assert result.invariants == {}
    assert len(result.outputs[0]) == INSTANCES
