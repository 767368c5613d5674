"""``BENCHMARK.json``'s command: one workload, one JSON result line.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Runs fresh-process passes of workload ``W`` (inputs generated from seed
``N``) one after another for as long as the next one is expected to end
within ``S`` seconds — and at least :data:`MIN_PASSES`, so every value is
a median — checks what the program computed, and prints as its last
line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` every pass is untraced and ``metrics`` holds the
end-to-end metrics.  With ``--trace 1`` the first pass is untraced (the
baseline of ``trace.overhead_ratio`` and of the traced-equals-untraced
digest check), the rest are traced, and ``metrics`` holds the per-layer
metrics.  Exit code 0 when a result was printed and the outputs were
correct.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.harness import (  # noqa: E402
    DEFAULT_SEED,
    PassFailed,
    WorkloadResult,
    evaluate,
    require_program,
    run_pass,
)

#: Fewest passes a run reports a median of.  A quiet box fits four in
#: ``BENCHMARK.json``'s ``run_seconds``; one running 1.7x slow still ends
#: its three inside a driver's time cap.
MIN_PASSES = 3


def result_line(result: WorkloadResult, *, trace: bool) -> dict:
    """The contract's result object: one metric family, values only."""
    family = result.per_layer if trace else result.end_to_end
    return {
        "correct": result.correct,
        "attempted": result.ops_attempted,
        "failed": result.ops_failed,
        "metrics": {name: {"value": entry["value"], "unit": entry["unit"]}
                    for name, entry in family.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    require_program()

    passes = []
    started = time.monotonic()

    def another_fits() -> bool:
        elapsed = time.monotonic() - started
        return elapsed + elapsed / len(passes) <= args.seconds

    try:
        while len(passes) < MIN_PASSES or another_fits():
            passes.append(run_pass(args.workload, args.seed,
                                   trace=bool(args.trace) and bool(passes)))
    except PassFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    result = evaluate(args.workload, args.seed, passes)
    for problem in result.problems:
        print(f"perfbench: {args.workload}: {problem}", file=sys.stderr)
    print(json.dumps(result_line(result, trace=bool(args.trace))))
    return 0 if result.correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
