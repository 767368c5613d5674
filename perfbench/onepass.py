"""Child process: exactly one pass of one workload, one JSON line out.

:mod:`perfbench.harness` starts this script fresh for every pass, one at
a time, so a pass never shares an interpreter (caches, heap, interned
chains) with another and ``ru_maxrss`` is the pass's own.  The host
clock starts before ``repro`` is imported: ``setup_s`` runs from the
parent's spawn timestamp to the moment the world is built (service:
listening, proposers welcomed, audience attached).
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench.hostclock import HostClock  # noqa: E402

_CLOCK = HostClock()
_CLOCK.start()

import argparse  # noqa: E402
import json  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    from perfbench.record import measure
    from perfbench.trace import Tracer
    from perfbench.metrics import WORKLOADS
    from perfbench.workloads import BatchInputs, make_inputs

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="the parent's time.perf_counter() at spawn")
    args = parser.parse_args(argv)

    tracer = Tracer(_CLOCK) if args.trace else None
    inputs = make_inputs(args.workload, args.seed, smoke=args.smoke,
                         tracer=tracer)
    if isinstance(inputs, BatchInputs):
        from perfbench.batch import run_batch
        raw = run_batch(inputs, tracer)
    else:
        from perfbench.service import run_service
        raw = run_service(inputs, _CLOCK, tracer)
    _CLOCK.stop()
    record = measure(raw, _CLOCK, args.spawned_at)
    record.update(workload=args.workload, seed=args.seed,
                  traced=bool(args.trace), smoke=args.smoke)
    print(json.dumps(record, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
