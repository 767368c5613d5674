"""repro.bench — the performance trajectory of the simulation engine.

Seeded, deterministic benchmark scenarios over every protocol family
(plain CHA, checkpoint-CHA, two-phase-CHA, the naive and majority RSM
baselines, and the full virtual-infrastructure emulation) at 50-400
nodes, a runner that times them on the fast stack *and* on the full
reference stack (``Switches.REFERENCE``), and a comparison mode that
fails on regressions against a committed baseline.

Usage::

    python -m repro.bench                 # full matrix -> BENCH_results.json
    python -m repro.bench --quick         # the CI smoke matrix
    python -m repro.bench --compare       # fail on >15% regression vs
                                          # benchmarks/BENCH_baseline.json
    python -m repro.bench --update-baseline

The committed baseline stores the *speedup versus the reference channel*
per scenario — a machine-independent ratio — so CI regression gating does
not depend on runner hardware.  Absolute wall times and rounds/sec are
reported alongside for humans.
"""

from .compare import (
    DEFAULT_ABSOLUTE_TOLERANCE,
    DEFAULT_BASELINE_PATH,
    DEFAULT_TOLERANCE,
    compare_absolute,
    compare_reports,
)
from .history import append_history, history_entry, load_history
from .runner import (
    BenchResult,
    load_report,
    run_benchmarks,
    run_scenario,
    write_report,
)
from .scenarios import (
    ALL_SCENARIOS,
    QUICK_SCENARIOS,
    BenchScenario,
    LoadScenario,
    scenario_by_name,
)

__all__ = [
    "ALL_SCENARIOS",
    "BenchResult",
    "BenchScenario",
    "LoadScenario",
    "DEFAULT_ABSOLUTE_TOLERANCE",
    "DEFAULT_BASELINE_PATH",
    "DEFAULT_TOLERANCE",
    "QUICK_SCENARIOS",
    "append_history",
    "compare_absolute",
    "compare_reports",
    "history_entry",
    "load_history",
    "load_report",
    "run_benchmarks",
    "run_scenario",
    "scenario_by_name",
    "write_report",
]
