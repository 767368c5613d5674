"""``PYTHONPATH=src python -m perfbench`` — every workload, one report.

Each workload runs ``--repeats`` untraced passes (the end-to-end
metrics) and, unless ``--no-trace``, one traced pass (the per-layer
metrics), every pass in a fresh child process, one at a time.  Prints
every metric by name with its unit, checks the outputs (invariants,
digests equal across passes and between traced and untraced, and equal
to ``expected.json`` for the default seed), optionally writes the report
with ``--out``, and exits non-zero if any check failed.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any

from .harness import (
    DEFAULT_SEED,
    PassFailed,
    WorkloadResult,
    evaluate,
    host_stamp,
    require_program,
    run_pass,
)
from .metrics import END_TO_END, WORKLOADS
from .stats import worse_by


def _run_workload(name: str, seed: int, *, repeats: int, trace: bool,
                  smoke: bool) -> WorkloadResult:
    passes = [run_pass(name, seed, trace=False, smoke=smoke)
              for _ in range(repeats)]
    if trace:
        passes.append(run_pass(name, seed, trace=True, smoke=smoke))
    return evaluate(name, seed, passes, smoke=smoke)


def _print_family(title: str, family: dict[str, dict[str, Any]]) -> None:
    print(f"  {title}")
    for name, entry in family.items():
        spread = (f"  ({entry['min']:.6g} .. {entry['max']:.6g}, "
                  f"n={entry['n']})" if entry["n"] > 1 else "")
        print(f"    {name:<30} {entry['value']:>14.6g} {entry['unit']:<6}"
              f"{spread}")


def _print_result(result: WorkloadResult) -> None:
    counts = result.as_dict()["passes"]
    verdict = "correct" if result.correct else "INCORRECT"
    print(f"== {result.workload} (seed {result.seed}): "
          f"{counts['untraced']} untraced + {counts['traced']} traced "
          f"pass(es) — {verdict}; ops attempted {result.ops_attempted}, "
          f"failed {result.ops_failed}; digest {result.digest[:12]}")
    for problem in result.problems:
        print(f"  !! {problem}")
    _print_family("end-to-end (median of the untraced passes)",
                  result.end_to_end)
    if result.per_layer:
        _print_family("per-layer (traced pass)", result.per_layer)


def _between_sets(first: list[WorkloadResult],
                  second: list[WorkloadResult]) -> dict[str, dict[str, float]]:
    """Per workload and end-to-end metric: by what share of the first
    set's median the second set's median is *worse* (negative = better)."""
    out: dict[str, dict[str, float]] = {}
    for a, b in zip(first, second):
        row = {}
        for name, _unit, better, _bound in END_TO_END:
            row[name] = worse_by(a.end_to_end[name]["value"],
                                 b.end_to_end[name]["value"], better)
        out[a.workload] = row
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m perfbench",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("--list", action="store_true",
                        help="print the workloads and why each exists")
    parser.add_argument("--workloads", default=",".join(WORKLOADS),
                        help="comma-separated subset (default: all)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--repeats", type=int, default=3,
                        help="untraced passes per workload (default: 3)")
    parser.add_argument("--trace", action=argparse.BooleanOptionalAction,
                        default=True,
                        help="also run one traced pass per workload")
    parser.add_argument("--sets", type=int, default=1,
                        help="independent repetitions of the whole sweep; "
                             "with 2 the report carries their disagreement")
    parser.add_argument("--smoke", action="store_true",
                        help="same shapes at about a twentieth of the size; "
                             "the numbers are not comparable with full runs")
    parser.add_argument("--out", help="write the report (JSON) here")
    args = parser.parse_args(argv)

    if args.list:
        for name, why in WORKLOADS.items():
            print(f"{name:<14} {why}")
        return 0
    names = [name for name in args.workloads.split(",") if name]
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown or args.repeats < 1 or args.sets < 1:
        parser.error(f"unknown workloads {unknown}; known: {list(WORKLOADS)}"
                     if unknown else "--repeats and --sets must be >= 1")
    require_program()
    if args.smoke:
        print("perfbench: --smoke sizes — numbers are NOT comparable with "
              "full runs")

    sets: list[list[WorkloadResult]] = []
    try:
        for index in range(args.sets):
            if args.sets > 1:
                print(f"#### set {index + 1} of {args.sets}")
            results = []
            for name in names:
                result = _run_workload(name, args.seed, repeats=args.repeats,
                                       trace=args.trace, smoke=args.smoke)
                _print_result(result)
                results.append(result)
            sets.append(results)
    except PassFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    report = {
        "schema": 1,
        "comparable": not args.smoke,
        "seed": args.seed,
        "repeats": args.repeats,
        "host": host_stamp(),
        "sets": [[r.as_dict() for r in results] for results in sets],
    }
    if len(sets) >= 2:
        report["second_set_worse_by"] = _between_sets(sets[0], sets[1])
        print("second set worse than the first by (share of the first):")
        for name, row in report["second_set_worse_by"].items():
            print(f"  {name:<14} " + "  ".join(
                f"{metric}={share:+.3f}" for metric, share in row.items()))
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(report, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"perfbench: report written to {args.out}")
    ok = all(r.correct for results in sets for r in results)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
