"""The committed trajectory: each PR's paired median ratios, chained.

    python tools/trajectory.py [--metric NAME]

Reads every committed ``BENCH_<n>_pairs.json`` (written by
``tools/pairs.py``) in PR order and, per workload x end-to-end metric,
multiplies ``change.median / parent.median`` from
``workloads[w]["metrics"][m]``.  Each ratio comes from alternating runs
of one parent and one change on one box, so the chain does not drift
with the box the way absolute numbers from ``BENCH_<n>.json`` reports
do.  Prints one table per metric: a row per PR, a column per workload,
each cell the product of the ratios up to and including that PR (a
ratio above 1 is a higher median, better or worse as the metric says).
"""

from __future__ import annotations

import argparse
import json
import re
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def pairs_files(root: Path = REPO) -> list[tuple[int, dict]]:
    """``(pr, report)`` for every ``BENCH_<pr>_pairs.json`` in ``root``,
    in PR order."""
    found = []
    for path in root.glob("BENCH_*_pairs.json"):
        match = re.fullmatch(r"BENCH_(\d+)_pairs\.json", path.name)
        if match:
            found.append((int(match.group(1)), json.loads(path.read_text())))
    return sorted(found, key=lambda item: item[0])


def trajectory(files: list[tuple[int, dict]]) -> dict[str, dict[str, list]]:
    """``metric -> workload -> [(pr, chained ratio through pr)]`` over
    ``files``.  A PR whose report lacks a workload x metric leaves that
    chain as it was."""
    out: dict[str, dict[str, list]] = {}
    for pr, report in files:
        for workload, summary in report["workloads"].items():
            for metric, result in summary["metrics"].items():
                chain = out.setdefault(metric, {}).setdefault(workload, [])
                ratio = result["change"]["median"] / result["parent"]["median"]
                chain.append((pr, (chain[-1][1] if chain else 1.0) * ratio))
    return out


def table(metric: str, chains: dict[str, list]) -> str:
    """One metric's chains as a plain-text table, a row per PR."""
    workloads = list(chains)
    prs = sorted({pr for chain in chains.values() for pr, _ in chain})
    rows = [["PR", *workloads]]
    for pr in prs:
        row = [str(pr)]
        for workload in workloads:
            upto = [value for p, value in chains[workload] if p <= pr]
            row.append(f"x{upto[-1]:.3f}" if upto else "-")
        rows.append(row)
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    lines = [f"{metric} (chained median ratio, change / parent)"]
    lines += ["  ".join(cell.rjust(w) for cell, w in zip(row, widths))
              for row in rows]
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--metric", action="append",
                        help="only this end-to-end metric (repeatable)")
    args = parser.parse_args(argv)
    chains = trajectory(pairs_files())
    for metric, by_workload in chains.items():
        if args.metric is None or metric in args.metric:
            print(table(metric, by_workload), end="\n\n")


if __name__ == "__main__":
    main()
