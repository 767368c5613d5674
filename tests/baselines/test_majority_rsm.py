"""Tests for the majority-quorum RSM strawman."""

import pytest

import repro
from repro.baselines import MajorityRSMProcess
from repro.net import RandomLossAdversary


def run_majority_rsm(n, rounds, *, adversary=None, rcf=0):
    """``(simulator, processes)`` of an ``n``-node ensemble; node 0 leads."""
    result = repro.run(repro.ExperimentSpec(
        protocol=repro.MajorityRSM(),
        world=repro.ClusterWorld(n=n, rcf=rcf),
        environment=repro.EnvironmentSpec(adversary=adversary),
        workload=repro.WorkloadSpec(rounds=rounds),
    ))
    return result.simulator, result.processes


class TestMajorityRSM:
    def test_rounds_per_instance_is_n_plus_2(self):
        proc = MajorityRSMProcess(my_index=0, n=7, is_leader=True,
                                  propose=lambda k: k)
        assert proc.rounds_per_instance == 9

    def test_clean_channel_decides_every_instance(self):
        sim, procs = run_majority_rsm(4, rounds=6 * 10)
        for proc in procs.values():
            if not proc.is_leader:
                assert proc.decided_count == 10

    def test_decisions_agree_across_nodes(self):
        sim, procs = run_majority_rsm(5, rounds=7 * 8)
        decisions = {tuple(p.decided) for p in procs.values() if not p.is_leader}
        assert len(decisions) == 1

    def test_leader_value_decided(self):
        sim, procs = run_majority_rsm(3, rounds=5 * 4)
        follower = procs[1]
        assert follower.decided[0] == (1, "m0.000001")

    def test_throughput_degrades_with_n(self):
        # Same round budget: larger ensembles decide fewer instances.
        budget = 300
        small = run_majority_rsm(3, rounds=budget)[1][1].decided_count
        large = run_majority_rsm(13, rounds=budget)[1][1].decided_count
        assert small == budget // 5
        assert large == budget // 15
        assert small > 2 * large

    def test_lost_acks_abort_instances(self):
        sim, procs = run_majority_rsm(
            5, rounds=7 * 30,
            adversary=RandomLossAdversary(p_drop=0.3, seed=2),
            rcf=7 * 30,  # adversary active throughout
        )
        decided = procs[1].decided_count
        assert decided < 30  # some instances lost their quorum or commit

    def test_no_false_decisions_under_loss(self):
        sim, procs = run_majority_rsm(
            4, rounds=6 * 20,
            adversary=RandomLossAdversary(p_drop=0.5, seed=7),
            rcf=6 * 20,
        )
        # Whatever was decided agrees with the leader's proposals.
        for p in procs.values():
            for k, v in p.decided:
                assert v == f"m0.{k:06d}"

    def test_invalid_index_rejected(self):
        with pytest.raises(ValueError):
            MajorityRSMProcess(my_index=5, n=3, is_leader=False,
                               propose=lambda k: k)
