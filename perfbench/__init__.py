"""perfbench — the repo's benchmark (see ``perfbench/README.md``).

Six long workloads over the public ``repro`` surface, end-to-end metrics
from untraced passes, per-layer metrics from traced passes, and a
correctness gate (invariants, output digests) in the same command:

* ``python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1``
  — one workload, one JSON result line (the ``BENCHMARK.json`` contract);
* ``PYTHONPATH=src python -m perfbench`` — every workload, a printed
  report, optionally written with ``--out``.

Importing this package imports nothing of ``repro`` and starts nothing.
"""
