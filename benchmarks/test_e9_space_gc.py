"""E9 — §3.5: checkpoint-CHA garbage collection bounds local state.

Plain CHAP's resident ballot/status entries grow linearly with the
execution; checkpoint-CHA's stay bounded while the execution is stable
(every green instance folds and collects) and grow only with the
distance to the last green instance during instability.
"""

from repro import scenario
from repro.contention import LeaderElectionCM
from repro.detectors import EventuallyAccurateDetector
from repro.net import RandomLossAdversary


def count_reducer(state, k, value):
    return state + (value is not None)


def resident(run):
    return run.processes[0].core.resident_entries()


def sweep():
    rows = []
    for instances in (25, 100, 400):
        plain = scenario().nodes(3).instances(instances).cha().run()
        gc = (scenario().nodes(3).instances(instances)
              .checkpoint_cha(reducer=count_reducer, initial_state=0)
              .run())
        rows.append(("stable", instances, resident(plain), resident(gc)))
    # Unstable prefix: greens are rare before stabilisation, so the GC'd
    # core temporarily holds more, then collapses after stabilising.
    stabilize = 300
    unstable = (
        scenario().nodes(3).instances(120)
        .checkpoint_cha(reducer=count_reducer, initial_state=0)
        .adversary(RandomLossAdversary(p_drop=0.5, p_false=0.3, seed=4))
        .detector(EventuallyAccurateDetector(racc=stabilize))
        .contention(LeaderElectionCM(stable_round=stabilize, chaos="random",
                                     seed=4))
        .radio(rcf=stabilize)
        .run()
    )
    rows.append(("unstable->stable", 120, "-", resident(unstable)))
    return rows


def test_e9_space_gc(benchmark, report):
    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    report(
        ["regime", "instances", "plain CHAP entries", "checkpoint-CHA entries"],
        rows,
        title="E9 / §3.5 — resident protocol state (ballot+status entries)",
    )
    stable = [row for row in rows if row[0] == "stable"]
    # Plain grows ~2 entries/instance; GC'd bounded by a small constant.
    assert stable[-1][2] > stable[0][2]
    assert all(row[3] <= 4 for row in stable)
    # Post-stabilisation, the unstable run has also collapsed.
    assert rows[-1][3] <= 4
