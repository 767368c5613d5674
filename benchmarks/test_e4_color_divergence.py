"""E4 — Property 4 / Lemma 5: colour divergence is at most one shade.

Soaks adversarial executions (random loss, false collisions, chaotic
contention) and histograms the per-instance maximum shade distance.
The paper's invariant: the histogram's support is contained in {0, 1};
a healthy reproduction also *hits* 1 (otherwise the check is vacuous).
"""

from repro import scenario
from repro.analysis import color_divergence_histogram
from repro.contention import LeaderElectionCM
from repro.detectors import EventuallyAccurateDetector
from repro.net import RandomLossAdversary

SEEDS = 20
INSTANCES = 40


def soak():
    total: dict[int, int] = {}
    for seed in range(SEEDS):
        run = (scenario().nodes(5).instances(INSTANCES).cha()
               .adversary(RandomLossAdversary(p_drop=0.4, p_false=0.25,
                                              seed=seed))
               .detector(EventuallyAccurateDetector(racc=90))
               .contention(LeaderElectionCM(stable_round=90, chaos="random",
                                            seed=seed))
               .radio(rcf=90)
               .run())
        for spread, count in color_divergence_histogram(run).items():
            total[spread] = total.get(spread, 0) + count
    return total


def test_e4_color_divergence(benchmark, report):
    histogram = benchmark.pedantic(soak, rounds=1, iterations=1)
    rows = [
        (spread, histogram.get(spread, 0),
         "allowed" if spread <= 1 else "FORBIDDEN (Property 4)")
        for spread in range(4)
    ]
    report(
        ["shade distance", "instances", "verdict"],
        rows,
        title=f"E4 / Property 4 — colour divergence over {SEEDS} seeds x "
              f"{INSTANCES} adversarial instances",
    )
    assert set(histogram) <= {0, 1}
    assert histogram.get(1, 0) > 0, "divergence never exercised (vacuous)"
    assert sum(histogram.values()) == SEEDS * INSTANCES
