"""E3 — Theorem 14 (rounds): every CHA instance costs exactly 3 rounds.

Measures real rounds per *decided* instance in the stable regime across
ensemble sizes and execution lengths: the constant 3, independent of n —
the headline contrast with quorum protocols whose cost grows with n.
"""

from repro import scenario
from repro.analysis import rounds_per_decided_instance


def sweep():
    rows = []
    for n in (1, 3, 6, 12, 24):
        run = scenario().nodes(n).instances(60).cha().run()
        rows.append((n, 60, rounds_per_decided_instance(run, 0)))
    for instances in (20, 200, 800):
        run = scenario().nodes(4).instances(instances).cha().run()
        rows.append((4, instances, rounds_per_decided_instance(run, 0)))
    return rows


def test_e3_rounds_per_instance(benchmark, report):
    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    report(
        ["n nodes", "instances", "rounds / decided instance"],
        rows,
        title="E3 / Theorem 14 — constant 3 rounds per agreement instance",
    )
    assert all(row[2] == 3.0 for row in rows)
