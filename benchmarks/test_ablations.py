"""Ablations A1-A3: the design choices DESIGN.md calls out.

A1 removes the veto-2 phase (back to a two-phase-commit shape) and shows
Agreement breaks on a concrete decide-and-die schedule that full CHAP
survives.  A2 weakens the collision detector to complete-but-never-
accurate and shows liveness stalls while safety holds (§5 open question
1).  A3 removes contention management (everyone always broadcasts) and
shows ballots never land — the decoupling argument of §1.1.
"""

import repro
from repro import scenario
from repro.contention import LeaderElectionCM
from repro.core import check_agreement, check_validity
from repro.detectors import CompleteOnlyDetector, EventuallyAccurateDetector
from repro.errors import SpecViolation
from repro.net import Crash, CrashPoint, CrashSchedule, ScriptedAdversary
from repro.types import BOTTOM


# ----------------------------------------------------------------------
# A1 — drop veto-2
# ----------------------------------------------------------------------

def a1_run():
    """The killer schedule: a spurious collision isolates one node's veto
    phase; the leader goes green, decides, and dies."""
    rows = []
    # Two-phase: instance 1 = rounds 0-1; false collision at node 1 in the
    # veto round; leader crashes before instance 2.
    violations_2p = 0
    try:
        run = repro.run(repro.ExperimentSpec(
            protocol=repro.TwoPhaseCHA(),
            world=repro.ClusterWorld(n=2),
            environment=repro.EnvironmentSpec(
                adversary=ScriptedAdversary(false_script=[(1, 1)]),
                detector=EventuallyAccurateDetector(racc=100),
                crashes=CrashSchedule([Crash(0, 2, CrashPoint.BEFORE_SEND)]),
            ),
            workload=repro.WorkloadSpec(instances=4),
        ))
        check_agreement(run.outputs)
    except SpecViolation:
        violations_2p += 1
    rows.append(("two-phase (no veto-2)", 2, violations_2p))

    violations_3p = 0
    try:
        run = (scenario().nodes(2).instances(4).cha()
               .adversary(ScriptedAdversary(false_script=[(1, 1)]))
               .detector(EventuallyAccurateDetector(racc=100))
               .crashes(CrashSchedule([Crash(0, 3, CrashPoint.BEFORE_SEND)]))
               .run())
        check_agreement(run.outputs)
    except SpecViolation:
        violations_3p += 1
    rows.append(("full CHAP (3 phases)", 3, violations_3p))
    return rows


def test_a1_two_phase_ablation(benchmark, report):
    rows = benchmark.pedantic(a1_run, rounds=1, iterations=1)
    report(
        ["protocol", "rounds/instance", "agreement violations"],
        rows,
        title="A1 — removing veto-2 breaks Agreement on a decide-and-die "
              "schedule",
    )
    assert rows[0][2] == 1   # the ablated protocol split history
    assert rows[1][2] == 0   # CHAP survives the identical schedule


# ----------------------------------------------------------------------
# A2 — weaker collision detector
# ----------------------------------------------------------------------

def a2_run():
    rows = []
    for name, detector in (
        ("eventually accurate (◇AC)", EventuallyAccurateDetector(racc=0)),
        ("complete-only, 30% false+", CompleteOnlyDetector(p_false=0.3, seed=1)),
        ("complete-only, 80% false+", CompleteOnlyDetector(p_false=0.8, seed=1)),
    ):
        run = scenario().nodes(4).instances(60).cha().detector(detector).run()
        check_validity(run.outputs, run.proposals)
        check_agreement(run.outputs)
        decided = sum(
            out is not BOTTOM for _, out in run.outputs[0]
        )
        rows.append((name, decided / 60, True))
    return rows


def test_a2_detector_ablation(benchmark, report):
    rows = benchmark.pedantic(a2_run, rounds=1, iterations=1)
    report(
        ["detector", "decided fraction", "safety held"],
        rows,
        title="A2 — persistent false positives starve liveness, never safety",
    )
    accurate, weak, weaker = rows
    assert accurate[1] == 1.0
    assert weak[1] < 0.8
    assert weaker[1] < weak[1]
    assert all(safety for _, _, safety in rows)


# ----------------------------------------------------------------------
# A3 — no contention management
# ----------------------------------------------------------------------

def a3_run():
    rows = []
    for name, cm in (
        ("leader election (Property 3)", LeaderElectionCM(stable_round=0)),
        ("none: all contenders broadcast",
         LeaderElectionCM(stable_round=10**9, chaos="all")),
    ):
        run = scenario().nodes(5).instances(40).cha().contention(cm).run()
        check_agreement(run.outputs)
        decided = sum(out is not BOTTOM for _, out in run.outputs[0])
        rows.append((name, decided / 40, True))
    return rows


def test_a3_contention_ablation(benchmark, report):
    rows = benchmark.pedantic(a3_run, rounds=1, iterations=1)
    report(
        ["contention manager", "decided fraction", "safety held"],
        rows,
        title="A3 — without contention management every ballot collides",
    )
    assert rows[0][1] == 1.0
    assert rows[1][1] == 0.0
    assert all(safety for _, _, safety in rows)
