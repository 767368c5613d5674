"""``tools/pairs.py``: the verdict logic, and the committed pairs files.

The synthetic cases pin each verdict on ten made-up pairs; the committed
``BENCH_<pr>_pairs.json`` files pin the summaries: recomputed from their
own ``runs``, every recorded number and verdict comes back.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
_spec = importlib.util.spec_from_file_location("pairs", ROOT / "tools" / "pairs.py")
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)

#: Ten parent runs around 100 with a small spread (IQR 2.5, 2.5 %).
BASE = [100.0, 101.0, 99.0, 100.5, 102.0, 98.0, 100.0, 101.5, 99.0, 98.5]


def judge(parent, change, better="higher"):
    return pairs.verdict(parent, change, better=better, bound=0.15)


def test_a_tie_is_within_bound():
    summary = judge(BASE, list(BASE))
    assert (summary["change_wins"], summary["ties"]) == (0, 10)
    assert summary["worse_by"] == 0 and summary["verdict"] == "within bound"


def test_nine_wins_in_ten_with_a_gap_beyond_the_iqr_is_better():
    change = [v * 1.06 for v in BASE]
    change[3] = BASE[3] - 1
    summary = judge(BASE, change)
    assert summary["change_wins"] == 9
    assert summary["verdict"] == "better"
    # The same runs, read with lower-is-better, are not better.
    assert judge(BASE, change, better="lower")["verdict"] == "within bound"


def test_eight_wins_in_ten_are_not_better():
    change = [v * 1.06 for v in BASE]
    change[3], change[5] = BASE[3] - 1, BASE[5] - 1
    assert judge(BASE, change)["change_wins"] == 8
    assert judge(BASE, change)["verdict"] == "within bound"


def test_nine_wins_inside_the_parent_iqr_are_within_bound():
    change = [v + 0.5 for v in BASE]
    change[0] = BASE[0] - 0.5
    summary = judge(BASE, change)
    assert summary["change_wins"] == 9
    assert abs(summary["change"]["median"] - summary["parent"]["median"]) < (
        summary["parent"]["q3"] - summary["parent"]["q1"])
    assert summary["verdict"] == "within bound"


@pytest.mark.parametrize("better,factor", [("higher", 0.8), ("lower", 1.2)])
def test_a_median_worse_than_the_bound_is_worse(better, factor):
    summary = judge(BASE, [v * factor for v in BASE], better=better)
    assert summary["worse_by"] == pytest.approx(0.2)
    assert summary["verdict"] == "worse"


def test_a_slowdown_inside_the_bound_is_within_bound():
    summary = judge(BASE, [v * 0.9 for v in BASE])
    assert summary["change_wins"] == 0 and summary["verdict"] == "within bound"


def test_a_spread_wider_than_the_bound_is_unresolved():
    wide = [60.0, 140.0, 70.0, 130.0, 100.0, 100.0, 80.0, 120.0, 90.0, 110.0]
    summary = judge(wide, list(BASE))
    assert summary["parent_iqr_share"] > 0.15
    assert summary["verdict"] == "unresolved"
    assert judge(BASE, wide)["verdict"] == "unresolved"   # either side
    # Unless every change run beats every parent run.
    assert judge(wide, [v + 200 for v in wide])["verdict"] == "better"


def _recorded(number):
    return json.loads((ROOT / f"BENCH_{number}_pairs.json").read_text())


#: The summary fields that do not depend on how quartiles are computed.
QUARTILE_FREE = ("unit", "better", "bound", "change_wins", "ties", "pairs",
                 "worse_by", "median_ratio")


@pytest.mark.parametrize("number,full", [
    # An older runner made BENCH_26_pairs.json with statistics.quantiles'
    # default (exclusive) method, so only its quartile-free fields and the
    # medians can come back; the later files come back whole.
    (26, False), (27, True), (28, True), (29, True)])
def test_committed_pairs_files_recompute_from_their_runs(number, full):
    recorded = _recorded(number)
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    sets = [("workloads", "runs"), ("fresh_seed_workloads", "fresh_seed_runs")]
    checked = 0
    for summaries, runs in sets:
        if summaries not in recorded:
            continue
        got = pairs.summarise(recorded[runs], end_to_end)
        assert set(got) == set(recorded[summaries])
        for workload, want in recorded[summaries].items():
            have = got[workload]
            assert have["failed_ops"] == want["failed_ops"]
            assert have["incorrect_runs"] == want["incorrect_runs"]
            assert set(have["metrics"]) == set(want["metrics"])
            for metric, fields in want["metrics"].items():
                mine = have["metrics"][metric]
                for key, value in fields.items():
                    if isinstance(value, dict):
                        if full:
                            assert mine[key] == pytest.approx(value)
                        else:
                            assert mine[key]["median"] == pytest.approx(
                                value["median"])
                    elif full or key in QUARTILE_FREE:
                        assert mine[key] == value, (workload, metric, key)
                checked += 1
    assert checked >= 36
