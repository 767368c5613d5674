"""E6 — Theorem 12 (Liveness): convergence after stabilisation.

The environment stabilises (channel, detector accuracy, contention
manager) at a known instance; the table reports how many instances after
that point the ensemble needs before every node decides every instance —
the paper's claim is a small constant, independent of n.
"""

from repro import scenario
from repro.analysis import convergence_instance
from repro.contention import LeaderElectionCM
from repro.detectors import EventuallyAccurateDetector
from repro.net import RandomLossAdversary

STABILIZE_INSTANCE = 15
STABILIZE_ROUND = STABILIZE_INSTANCE * 3


def sweep():
    rows = []
    for n in (2, 5, 10):
        for intensity, p_drop in (("moderate", 0.3), ("heavy", 0.6)):
            lags = []
            for seed in range(10):
                run = (
                    scenario().nodes(n).instances(STABILIZE_INSTANCE + 15)
                    .cha()
                    .adversary(RandomLossAdversary(
                        p_drop=p_drop, p_false=p_drop / 2, seed=seed,
                    ))
                    .detector(EventuallyAccurateDetector(racc=STABILIZE_ROUND))
                    .contention(LeaderElectionCM(stable_round=STABILIZE_ROUND,
                                                 chaos="random", seed=seed))
                    .radio(rcf=STABILIZE_ROUND)
                    .run()
                )
                kst = convergence_instance(run)
                assert kst is not None, "never converged"
                lags.append(max(0, kst - (STABILIZE_INSTANCE + 1)))
            rows.append((n, intensity, max(lags), sum(lags) / len(lags)))
    return rows


def test_e6_liveness_convergence(benchmark, report):
    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    report(
        ["n nodes", "adversary", "max lag (instances)", "mean lag"],
        rows,
        title="E6 / Theorem 12 — instances from stabilisation to full "
              "convergence (10 seeds each)",
    )
    # Convergence within one instance of stabilisation, regardless of n.
    assert all(row[2] <= 1 for row in rows)
