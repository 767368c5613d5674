"""E2 — Theorem 14 (message size): CHAP constant vs naive RSM linear.

Sweeps execution length and ensemble size; reports the maximum wire
message size.  CHAP must stay flat in both dimensions; the naive
full-history baseline must grow linearly with the execution.
"""

from repro import scenario
from repro.analysis import message_size_stats

LENGTHS = [10, 50, 200, 500]
SIZES_N = [2, 5, 10]


def sweep():
    by_length = []
    for instances in LENGTHS:
        chap = scenario().nodes(4).instances(instances).cha().run()
        naive = scenario().nodes(4).instances(instances).naive_rsm().run()
        by_length.append((
            instances,
            message_size_stats(chap.trace).max,
            message_size_stats(naive.trace).max,
        ))
    by_n = []
    for n in SIZES_N:
        chap = scenario().nodes(n).instances(50).cha().run()
        by_n.append((n, message_size_stats(chap.trace).max))
    return by_length, by_n


def test_e2_message_size(benchmark, report):
    by_length, by_n = benchmark.pedantic(sweep, rounds=1, iterations=1)

    report(
        ["instances", "CHAP max msg (B)", "naive RSM max msg (B)"],
        by_length,
        title="E2a / Theorem 14 — max message size vs execution length",
    )
    report(
        ["n nodes", "CHAP max msg (B)"],
        by_n,
        title="E2b / Theorem 14 — max message size vs ensemble size",
    )

    chap_sizes = [row[1] for row in by_length]
    naive_sizes = [row[2] for row in by_length]
    # CHAP flat; naive superlinear growth across the sweep.
    assert len(set(chap_sizes)) == 1
    assert naive_sizes[-1] > naive_sizes[0] * 20
    # CHAP flat in n too.
    assert len({row[1] for row in by_n}) == 1
