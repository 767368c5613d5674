"""E5 — Theorem 10 (Agreement) + Theorem 13 (Validity): adversarial soak.

Runs a battery of seeded adversarial executions — message loss, false
collisions, chaotic contention, random crashes including decide-and-die —
and counts specification violations.  The paper proves zero; the table
also reports how often outputs were bottom, showing the checks bite on
genuinely turbulent executions rather than clean ones.
"""

from repro import scenario
from repro.analysis import check_all_invariants
from repro.contention import LeaderElectionCM
from repro.core import check_agreement, check_validity
from repro.detectors import EventuallyAccurateDetector
from repro.errors import SpecViolation
from repro.faults import CrashWave
from repro.net import CrashSchedule, RandomLossAdversary
from repro.types import BOTTOM

SEEDS = 30


def soak():
    violations = 0
    bottoms = 0
    outputs_total = 0
    for seed in range(SEEDS):
        run = (scenario().nodes(5).instances(30).cha()
               .adversary(RandomLossAdversary(
                   p_drop=0.35 + 0.02 * (seed % 5),
                   p_false=0.25, seed=seed,
               ))
               .detector(EventuallyAccurateDetector(racc=70))
               .contention(LeaderElectionCM(stable_round=70, chaos="random",
                                            seed=seed))
               .crashes(CrashSchedule(CrashWave(
                   fraction=0.4, horizon=60, spare=frozenset({4}),
               ).crashes(5, seed)))
               .radio(rcf=70)
               .run())
        try:
            check_validity(run.outputs, run.proposals)
            check_agreement(run.outputs)
            check_all_invariants(run)
        except SpecViolation:
            violations += 1
        for log in run.outputs.values():
            outputs_total += len(log)
            bottoms += sum(out is BOTTOM for _, out in log)
    return violations, bottoms, outputs_total


def test_e5_agreement_soak(benchmark, report):
    violations, bottoms, outputs_total = benchmark.pedantic(
        soak, rounds=1, iterations=1,
    )
    report(
        ["seeds", "spec violations", "⊥ outputs", "total outputs", "⊥ rate"],
        [[SEEDS, violations, bottoms, outputs_total,
          bottoms / outputs_total]],
        title="E5 / Theorems 10+13 — agreement & validity under adversity "
              "(crashes incl. decide-and-die)",
    )
    assert violations == 0
    assert bottoms > 0, "environment too benign to exercise disagreement"
