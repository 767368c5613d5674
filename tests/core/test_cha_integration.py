"""Integration tests: CHAP ensembles on the simulated radio channel.

These tests check the theorems of Section 3.6 on whole executions,
including the footnote-2 decide-and-crash scenario and Property 4.
"""

import pytest

from repro import scenario
from repro.contention import LeaderElectionCM
from repro.core import (
    ROUNDS_PER_INSTANCE,
    check_agreement,
    check_all,
    check_liveness,
    check_validity,
    find_liveness_point,
)
from repro.detectors import EventuallyAccurateDetector
from repro.net import (
    Crash,
    CrashPoint,
    CrashSchedule,
    PartitionAdversary,
    RandomLossAdversary,
    ScriptedAdversary,
    WindowAdversary,
)
from repro.types import BOTTOM, Color


class TestStableExecution:
    def test_all_green_from_first_instance(self):
        run = scenario().nodes(4).instances(10).cha().run()
        kst = check_all(run.outputs, run.proposals, liveness_by=1)
        assert kst == 1

    def test_every_node_outputs_every_instance(self):
        run = scenario().nodes(3).instances(7).cha().run()
        for log in run.outputs.values():
            assert [k for k, _ in log] == list(range(1, 8))

    def test_single_node_ensemble(self):
        run = scenario().nodes(1).instances(5).cha().run()
        assert check_all(run.outputs, run.proposals, liveness_by=1) == 1

    def test_histories_identical_across_nodes(self):
        run = scenario().nodes(5).instances(6).cha().run()
        finals = {run.history_of(node) for node in run.processes}
        assert len(finals) == 1

    def test_leader_value_wins(self):
        # The stable leader is node 0 (min id): its proposals fill history.
        run = scenario().nodes(4).instances(5).cha().run()
        h = run.history_of(0)
        assert all(h(k) == f"v0.{k:06d}" for k in range(1, 6))

    def test_three_rounds_per_instance(self):
        run = scenario().nodes(4).instances(9).cha().run()
        assert len(run.trace) == 9 * ROUNDS_PER_INSTANCE


class TestTheorem14Overhead:
    def test_message_size_constant_over_execution(self):
        short = scenario().nodes(4).instances(5).cha().run()
        long = scenario().nodes(4).instances(200).cha().run()
        assert short.trace.max_message_size() == long.trace.max_message_size()

    def test_message_size_independent_of_n(self):
        small = scenario().nodes(2).instances(20).cha().run()
        big = scenario().nodes(12).instances(20).cha().run()
        assert small.trace.max_message_size() == big.trace.max_message_size()


class TestCrashTolerance:
    def test_survivors_converge_after_crashes(self):
        crashes = CrashSchedule.of({0: 10, 1: 20})
        run = scenario().nodes(5).instances(30).cha().crashes(crashes).run()
        survivors = run.surviving_nodes()
        assert set(survivors) == {2, 3, 4}
        check_validity(run.outputs, run.proposals)
        check_agreement(run.outputs)
        outs = {n: run.outputs[n] for n in survivors}
        assert find_liveness_point(outs) is not None

    def test_leader_crash_migrates_leadership(self):
        # Node 0 is the stable leader; it crashes mid-execution and node 1
        # must take over, keeping liveness.
        crashes = CrashSchedule.of({0: 9})  # start of instance 4
        run = scenario().nodes(3).instances(20).cha().crashes(crashes).run()
        outs = {n: run.outputs[n] for n in (1, 2)}
        check_agreement(run.outputs)
        kst = find_liveness_point(outs)
        assert kst is not None

    def test_footnote2_decide_and_crash(self):
        """A node decides an instance and crashes before telling anyone;
        survivors must remain consistent with the unknown decision."""
        # Node 0 (leader) completes instance 2 (rounds 3-5) and crashes
        # right after broadcasting in the last round of that instance.
        crashes = CrashSchedule([Crash(0, 5, CrashPoint.AFTER_SEND)])
        run = scenario().nodes(4).instances(10).cha().crashes(crashes).run()
        # The crashed node's outputs (including any decided history) must
        # agree with everything the survivors ever output.
        check_agreement(run.outputs)
        check_validity(run.outputs, run.proposals)
        dead_log = run.outputs[0]
        assert any(out is not BOTTOM for _, out in dead_log)

    def test_all_but_one_crash(self):
        crashes = CrashSchedule.of({0: 6, 1: 6, 2: 6})
        run = scenario().nodes(4).instances(20).cha().crashes(crashes).run()
        check_agreement(run.outputs)
        outs = {3: run.outputs[3]}
        assert find_liveness_point(outs) is not None


class TestUnstablePeriod:
    def make_unstable_run(self, *, seed, instances=40, n=5, stabilize_at=60):
        return (scenario().nodes(n).instances(instances).cha()
                .adversary(RandomLossAdversary(p_drop=0.4, p_false=0.25,
                                               seed=seed))
                .detector(EventuallyAccurateDetector(racc=stabilize_at))
                .contention(LeaderElectionCM(stable_round=stabilize_at,
                                             chaos="random", seed=seed))
                .radio(rcf=stabilize_at)
                .run())

    @pytest.mark.parametrize("seed", range(8))
    def test_safety_holds_throughout_instability(self, seed):
        run = self.make_unstable_run(seed=seed)
        check_validity(run.outputs, run.proposals)
        check_agreement(run.outputs)

    @pytest.mark.parametrize("seed", range(4))
    def test_liveness_after_stabilization(self, seed):
        run = self.make_unstable_run(seed=seed)
        # Stabilisation at round 60 = instance 20; convergence must follow
        # within a couple of instances.
        kst = check_liveness(run.outputs, by_instance=23)
        assert kst >= 1

    @pytest.mark.parametrize("seed", range(8))
    def test_property4_one_shade_divergence(self, seed):
        run = self.make_unstable_run(seed=seed)
        for k in range(1, run.instances + 1):
            colors = list(run.colors_at(k).values())
            worst = max(a.shade_distance(b) for a in colors for b in colors)
            assert worst <= 1, f"instance {k} diverged by {worst} shades"

    def test_lemma5_red_implies_no_good(self):
        """Lemma 5 second half: a red instance is red/orange everywhere."""
        seen_red = 0
        for seed in range(10):
            run = self.make_unstable_run(seed=seed, instances=30)
            for k in range(1, 31):
                colors = run.colors_at(k).values()
                if Color.RED in colors:
                    seen_red += 1
                    assert all(c <= Color.ORANGE for c in colors)
        assert seen_red > 0  # the scenario actually occurred

    def test_lemma9_green_included_in_all_later_histories(self):
        for seed in range(5):
            run = self.make_unstable_run(seed=seed, instances=30)
            greens = [
                k for k in range(1, 31)
                if any(c is Color.GREEN for c in run.colors_at(k).values())
            ]
            assert greens, "no green instance in this execution"
            for node, log in run.outputs.items():
                for k_out, out in log:
                    if out is BOTTOM:
                        continue
                    for g in greens:
                        if g <= k_out:
                            assert out.includes(g)


class TestScriptedDisagreement:
    def test_partitioned_nodes_stay_safe(self):
        """Two groups that cannot hear each other never split history."""
        adv = WindowAdversary(PartitionAdversary([[0, 1], [2, 3]]),
                              until=30)
        run = (scenario().nodes(4).instances(30).cha()
               .adversary(adv)
               .detector(EventuallyAccurateDetector(racc=30))
               .contention(LeaderElectionCM(stable_round=0))
               .radio(rcf=30)
               .run())
        check_agreement(run.outputs)
        check_validity(run.outputs, run.proposals)
        # After the partition heals the ensemble converges.
        kst = find_liveness_point(run.outputs)
        assert kst is not None and kst <= 12

    def test_targeted_veto2_loss_creates_yellow_green_split(self):
        """Drop the veto-2 round's silence at one node via a false
        collision: it turns yellow while others stay green -- the
        divergence Figure 2 tolerates."""
        # Round 2 is instance 1's veto-2 phase.  A false collision at node
        # 1 only (detector accuracy starts at round 100).
        adv = ScriptedAdversary(false_script=[(2, 1)])
        run = (scenario().nodes(3).instances(4).cha()
               .adversary(adv)
               .detector(EventuallyAccurateDetector(racc=100))
               .run())
        colors = run.colors_at(1)
        assert colors[0] is Color.GREEN
        assert colors[1] is Color.YELLOW
        assert colors[2] is Color.GREEN
        check_agreement(run.outputs)
        # The yellow node output bottom for instance 1 but its *next*
        # output includes instance 1 (prev-instance advanced).
        log = dict(run.outputs[1])
        assert log[1] is BOTTOM
        assert log[2] is not BOTTOM and log[2].includes(1)
