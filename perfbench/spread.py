"""The acceptance check a benchmark driver makes, run locally.

    python3 perfbench/spread.py --out perfbench/results/spread.json

Runs ``BENCHMARK.json``'s command the way the driver does — every
workload, ``--seeds`` runs each with a different ``--seed``, ``--trace 0``
— and does so ``--sets`` times over.  Per workload and end-to-end metric
it reports the inter-quartile spread of each set as a share of its median
and by what share the second set's median is worse than the first's, and
exits non-zero when either exceeds the metric's bound (``setup_s`` is
held to its bound between sets only), a run was incorrect or an
operation failed.  Takes about a third of a minute per run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.harness import ROOT, host_stamp  # noqa: E402
from perfbench.stats import spread, worse_by  # noqa: E402


def one_run(benchmark: dict, workload: str, seed: int) -> dict:
    command = benchmark["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(benchmark["run_seconds"]), "--trace", "0"]
    started = time.monotonic()
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=180)
    elapsed = time.monotonic() - started
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"spread: {workload} seed {seed}: exit code "
                         f"{done.returncode}, {len(lines)} line(s) printed")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"spread: {workload} seed {seed}: {lines[-1]}")
    return {"seed": seed, "elapsed_s": elapsed,
            **{name: m["value"] for name, m in result["metrics"].items()}}


def main(argv: list[str] | None = None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    known = [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(known))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--out", help="write runs and spreads (JSON) here")
    args = parser.parse_args(argv)
    names = [name for name in args.workloads.split(",") if name]
    if set(names) - set(known) or args.seeds < 2 or args.sets < 1:
        parser.error(f"workloads must be among {known}; --seeds >= 2, "
                     "--sets >= 1")

    sets = []
    for index in range(args.sets):
        runs = {}
        for name in names:
            runs[name] = [one_run(benchmark, name, args.first_seed + i)
                          for i in range(args.seeds)]
            took = statistics.median(r["elapsed_s"] for r in runs[name])
            print(f"set {index + 1}: {name}: {args.seeds} runs, median "
                  f"{took:.1f} s each", flush=True)
        sets.append(runs)

    ok = True
    table: dict[str, dict[str, dict]] = {}
    for name in names:
        table[name] = {}
        for metric in benchmark["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            values = [[run[key] for run in runs[name]] for runs in sets]
            medians = [statistics.median(v) for v in values]
            row = {"unit": metric["unit"], "bound": bound,
                   "medians": medians, "spreads": [spread(v) for v in values]}
            if len(sets) >= 2:
                row["second_worse_by"] = worse_by(
                    medians[0], medians[1], metric["better"])
            within = (row.get("second_worse_by", 0.0) <= bound
                      and (key == "setup_s" or max(row["spreads"]) <= bound))
            ok = ok and within
            table[name][key] = row
            print(f"{name:<13} {key:<24} median {medians[0]:>10.5g} "
                  f"{metric['unit']:<4} spread "
                  + " ".join(f"{s:.3f}" for s in row["spreads"])
                  + (f"  second worse by {row['second_worse_by']:+.3f}"
                     if len(sets) >= 2 else "")
                  + f"  bound {bound}" + ("" if within else "  <-- OUTSIDE"))
    if args.out:
        with open(args.out, "w") as handle:
            json.dump({"seeds": args.seeds, "first_seed": args.first_seed,
                       "run_seconds": benchmark["run_seconds"],
                       "host": host_stamp(),
                       "spreads": table, "sets": sets},
                      handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
