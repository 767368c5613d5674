"""``tools/trajectory.py``: the committed pairs files, chained.

The chain of paired median ratios must reproduce the numbers the ROADMAP
recomputed by hand from the same files, and every committed
``BENCH_<pr>_pairs.json`` must join it.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
_spec = importlib.util.spec_from_file_location(
    "trajectory", ROOT / "tools" / "trajectory.py")
trajectory = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(trajectory)

#: ROADMAP's chain of ``rounds_per_s`` over PRs 14 -> 25.
ROADMAP_14_TO_25 = {"cha-dense": 1.410, "cha-lossy": 2.549,
                    "vi-static": 1.465, "vi-mobile": 1.937,
                    "svc-tcp": 2.202, "svc-audience": 1.543}


def chained(through: int) -> dict[str, float]:
    """The ``rounds_per_s`` chain value per workload through PR
    ``through``."""
    files = [(pr, report) for pr, report in trajectory.pairs_files(ROOT)
             if pr <= through]
    chains = trajectory.trajectory(files)
    return {workload: chain[-1][1]
            for workload, chain in chains["rounds_per_s"].items()}


def test_the_14_to_25_chain_reproduces_the_roadmap():
    assert trajectory.pairs_files(ROOT)[0][0] == 14
    assert chained(25) == pytest.approx(ROADMAP_14_TO_25, abs=0.005)


def test_the_chain_through_29_reads_vi_static_1_44():
    assert chained(29)["vi-static"] == pytest.approx(1.44, abs=0.005)


def test_every_committed_pairs_file_joins_the_chain():
    prs = [pr for pr, _ in trajectory.pairs_files(ROOT)]
    assert prs[0] == 14 and 30 in prs
    chains = trajectory.trajectory(trajectory.pairs_files(ROOT))
    for by_workload in chains.values():
        for chain in by_workload.values():
            assert [pr for pr, _ in chain] == prs


def _report(ratios: dict[tuple[str, str], float]) -> dict:
    """A pairs report with ``(workload, metric) -> median ratio``."""
    workloads: dict = {}
    for (workload, metric), ratio in ratios.items():
        workloads.setdefault(workload, {"metrics": {}})["metrics"][metric] = {
            "parent": {"median": 10.0}, "change": {"median": 10.0 * ratio}}
    return {"workloads": workloads}


def test_a_missing_metric_leaves_its_chain_as_it_was():
    files = [(1, _report({("w", "a"): 2.0, ("v", "a"): 0.5})),
             (2, _report({("w", "a"): 1.5})),
             (3, _report({("w", "a"): 0.5, ("v", "a"): 3.0}))]
    chains = trajectory.trajectory(files)["a"]
    assert chains == {"w": [(1, 2.0), (2, 3.0), (3, 1.5)],
                      "v": [(1, 0.5), (3, 1.5)]}
    # The table carries a chain over a PR that lacks it.
    assert trajectory.table("a", chains).splitlines()[1:] == [
        "PR       w       v", " 1  x2.000  x0.500", " 2  x3.000  x0.500",
        " 3  x1.500  x1.500"]


def test_the_command_prints_one_table_per_metric(capsys):
    trajectory.main(["--metric", "rounds_per_s"])
    out = capsys.readouterr().out
    assert out.count("chained median ratio") == 1
    rows = [row.split() for row in out.strip().splitlines()]
    assert rows[1] == ["PR", *ROADMAP_14_TO_25]
    # The PR-25 row reads the 14 -> 25 chain.
    (row_25,) = [row for row in rows if row[0] == "25"]
    assert [float(cell[1:]) for cell in row_25[1:]] == pytest.approx(
        list(ROADMAP_14_TO_25.values()), abs=0.005)
