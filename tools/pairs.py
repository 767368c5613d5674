"""Paired parent/change runs of ``BENCHMARK.json``'s command, with verdicts.

    python tools/pairs.py PARENT CHANGE --pr N [--seeds FIRST-LAST] [--out FILE]

``PARENT`` and ``CHANGE`` are git tree-ishes: commits, or the tree of a
staged index (``git write-tree``).  Each is exported with ``git archive``
into a clean directory of its own, and ``BENCHMARK.json``'s command runs
there with ``PYTHONDONTWRITEBYTECODE=1`` (no bytecode cache on either
side), one process at a time.  Pair ``i`` runs every workload on both
sides with the ``i``-th seed (ten seeds from ``100 * N`` by default): the
parent first on even pairs, the change first on odd ones.

It writes ``BENCH_<N>_pairs.json`` (rewritten after every pair, so an
interrupted run keeps what it measured): every run under ``runs``, and
per workload × end-to-end metric both sides' median and quartiles
(``statistics.quantiles(method="inclusive")``), the pairs the change
wins or ties, ``worse_by`` (how much worse the change median is, as a
share of the parent's; negative when better) and a verdict by
:func:`verdict`: ``better``, ``within bound``, ``worse`` or
``unresolved``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

RULE = ("'better' when the change wins >= 9/10 pairs and the medians differ "
        "by more than the parent's inter-quartile distance; 'worse' when the "
        "change median is worse than the parent's by more than the bound; "
        "'unresolved' when either side's inter-quartile spread exceeds the "
        "bound, unless every change run beats every parent run (checked "
        "first); 'within bound' otherwise")


def verdict(parent: list[float], change: list[float], *, better: str,
            bound: float) -> dict:
    """The summary of one workload × metric over paired runs:
    ``parent[i]`` and ``change[i]`` are pair ``i``'s values, and
    ``better`` says which way is better (``"lower"`` or ``"higher"``)."""
    def side(values):
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
        return {"median": statistics.median(values), "q1": q1, "q3": q3}

    lower = better == "lower"
    beats = (lambda c, p: c < p) if lower else (lambda c, p: c > p)
    p, c = side(parent), side(change)
    wins = sum(beats(cv, pv) for pv, cv in zip(parent, change))
    ties = sum(cv == pv for pv, cv in zip(parent, change))
    ratio = c["median"] / p["median"]
    worse_by = ratio - 1 if lower else 1 - ratio
    p_iqr, c_iqr = p["q3"] - p["q1"], c["q3"] - c["q1"]
    p_share, c_share = p_iqr / p["median"], c_iqr / c["median"]
    if (max(p_share, c_share) > bound
            and not all(beats(cv, pv) for pv in parent for cv in change)):
        outcome = "unresolved"
    elif (10 * wins >= 9 * len(parent) and worse_by < 0
          and abs(c["median"] - p["median"]) > p_iqr):
        outcome = "better"
    elif worse_by > bound:
        outcome = "worse"
    else:
        outcome = "within bound"
    return {"parent": p, "change": c, "change_wins": wins, "ties": ties,
            "pairs": len(parent), "worse_by": round(worse_by, 4),
            "parent_iqr_share": round(p_share, 4),
            "change_iqr_share": round(c_share, 4), "verdict": outcome,
            "median_ratio": round(ratio, 4)}


def summarise(runs: list[dict], end_to_end: list[dict]) -> dict:
    """Per workload: failed ops per side, incorrect runs, and
    :func:`verdict` for every end-to-end metric both sides of a pair
    reported."""
    by_pair: dict[str, dict[int, dict[str, dict]]] = {}
    for run in runs:
        by_pair.setdefault(run["workload"], {}).setdefault(
            run["pair"], {})[run["side"]] = run
    out = {}
    for workload, pairs in by_pair.items():
        sides = [r for pair in pairs.values() for r in pair.values()]
        metrics = {}
        for m in end_to_end:
            name = m["name"]
            both = [pairs[i] for i in sorted(pairs)
                    if all(name in pairs[i].get(s, {}).get("metrics", {})
                           for s in ("parent", "change"))]
            if len(both) < 2:
                continue
            metrics[name] = {"unit": m["unit"], "better": m["better"],
                             "bound": m["bound"], **verdict(
                [pair["parent"]["metrics"][name] for pair in both],
                [pair["change"]["metrics"][name] for pair in both],
                better=m["better"], bound=m["bound"])}
        out[workload] = {
            "failed_ops": {s: sum(r.get("failed", 0) for r in sides
                                  if r["side"] == s)
                           for s in ("parent", "change")},
            "incorrect_runs": sum(not r.get("correct") for r in sides),
            "metrics": metrics,
        }
    return out


def export(rev: str, dest: Path) -> None:
    """A clean checkout of ``rev`` at ``dest`` (``git archive``)."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev], cwd=REPO,
                         check=True, capture_output=True).stdout
    dest.mkdir(parents=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=tar, check=True)


def run_once(checkout: Path, command: list[str], workload: str, seed: int,
             seconds: float) -> dict:
    """One run of the benchmark command in ``checkout``."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    started = time.monotonic()
    proc = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, env=env, capture_output=True, text=True)
    run = {"exit": proc.returncode,
           "elapsed_s": round(time.monotonic() - started, 2)}
    try:
        line = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        run["stderr"] = proc.stderr[-2000:]
        return run
    run.update(correct=line["correct"], attempted=line["attempted"],
               failed=line["failed"],
               metrics={k: v["value"] for k, v in line["metrics"].items()})
    return run


def parse_seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--seeds", help="FIRST-LAST (default: ten from 100*PR)")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    bench = json.loads((REPO / "BENCHMARK.json").read_text())
    seeds = (parse_seeds(args.seeds) if args.seeds
             else list(range(100 * args.pr, 100 * args.pr + 10)))
    workloads = [w["name"] for w in bench["workloads"]]
    out = args.out or REPO / f"BENCH_{args.pr}_pairs.json"
    revs = {side: subprocess.run(
        ["git", "rev-parse", "--short", rev], cwd=REPO, check=True,
        capture_output=True, text=True).stdout.strip()
        for side, rev in (("parent", args.parent), ("change", args.change))}
    report = {
        "what": (f"{len(seeds)} alternating parent/change pairs of "
                 f"BENCHMARK.json's command ({' '.join(bench['command'])} "
                 f"--workload W --seed S --seconds {bench['run_seconds']} "
                 "--trace 0), each side run from its own clean checkout "
                 "(git archive) with PYTHONDONTWRITEBYTECODE=1, one process "
                 "at a time; even pairs run the parent first, odd pairs the "
                 "change first (tools/pairs.py)"),
        **revs, "seeds": seeds, "rule": RULE, "workloads": {}, "runs": [],
    }
    with tempfile.TemporaryDirectory() as tmp:
        checkouts = {side: Path(tmp) / side for side in revs}
        for side, rev in (("parent", args.parent), ("change", args.change)):
            export(rev, checkouts[side])
        for pair, seed in enumerate(seeds):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for workload in workloads:
                for side in order:
                    run = {"pair": pair, "seed": seed, "workload": workload,
                           "side": side, "first": side == order[0],
                           **run_once(checkouts[side], bench["command"],
                                      workload, seed, bench["run_seconds"])}
                    report["runs"].append(run)
                    print(json.dumps({k: run.get(k) for k in (
                        "pair", "workload", "side", "exit", "elapsed_s")}),
                        file=sys.stderr, flush=True)
            report["workloads"] = summarise(report["runs"], bench["end_to_end"])
            out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
