"""Time benchmark scenarios on the fast and reference engine paths.

Each scenario trial builds a fresh spec (fresh seeded components) and
drives it through :func:`repro.experiment.runner.run`, with a timing
proxy around :meth:`Channel.deliver` installed via the runner's
``instrument`` hook and the history fold timer armed, so the report can
break each round's wall time into the *channel* phase, the *history*
phase (``calculate-history`` folding) and the *protocol + engine*
remainder.

Reference timings re-run the same scenario on the full reference stack
— :attr:`Switches.REFERENCE <repro.switches.Switches.REFERENCE>`, every
twin in the axis table at once — giving the machine-independent
``speedup_vs_reference`` ratio the regression gate
(:mod:`repro.bench.compare`) is keyed on.

``run_benchmarks(..., workers=N)`` fans whole scenarios out over
:func:`repro.experiment.sweep.pool_map` (the sweep subsystem's worker
pool); each scenario is still timed inside its own dedicated process, so
the deterministic fields of a parallel report match the serial one.
"""

from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Iterable

from ..core.history import HISTORY_TIMER
from ..experiment.runner import run
from ..experiment.sweep import pool_map
from ..switches import Switches
from .scenarios import ALL_SCENARIOS, BenchScenario, LoadScenario, scenario_by_name

#: BENCH_results.json schema version.
SCHEMA = 1


class _ChannelTimer:
    """Delegating proxy accumulating time spent in channel delivery
    (both the classic per-call entrypoint and the batched one)."""

    def __init__(self, inner) -> None:
        self._inner = inner
        self.seconds = 0.0
        self.calls = 0

    def deliver(self, *args, **kwargs):
        t0 = time.perf_counter()
        out = self._inner.deliver(*args, **kwargs)
        self.seconds += time.perf_counter() - t0
        self.calls += 1
        return out

    def deliver_batch(self, *args, **kwargs):
        t0 = time.perf_counter()
        out = self._inner.deliver_batch(*args, **kwargs)
        self.seconds += time.perf_counter() - t0
        self.calls += 1
        return out

    def __getattr__(self, name):
        return getattr(self._inner, name)


@dataclass
class BenchResult:
    """One scenario's measurements (the unit of BENCH_results.json)."""

    name: str
    family: str
    n: int
    description: str
    rounds: int
    #: Whether this scenario participates in the speedup regression gate
    #: (channel-dominated scenarios only; see BenchScenario.gated).
    gated: bool
    #: Fast-path wall time (best of ``repeats`` trials) and throughput.
    wall_s: float
    rounds_per_sec: float
    #: Per-phase wall-time breakdown of the best fast trial.
    phases: dict[str, float] = field(default_factory=dict)
    #: Reference-path numbers (None when ``--no-reference``).
    reference_wall_s: float | None = None
    reference_rounds_per_sec: float | None = None
    #: The machine-independent regression metric.
    speedup_vs_reference: float | None = None
    #: Scenario-kind-specific numbers.  For ``svc-*`` load scenarios:
    #: proposals/sec, decision-latency percentiles, dropped events,
    #: session counts.  Empty for batch scenarios.
    extras: dict = field(default_factory=dict)


def _time_once(scenario: BenchScenario, *,
               reference: bool) -> tuple[float, int, dict[str, float]]:
    """One trial: returns (wall_s, rounds, phase breakdown)."""
    spec = scenario.make_spec()
    if reference:
        spec = dataclasses.replace(spec, switches=Switches.REFERENCE)
    timer_box: list[_ChannelTimer] = []

    def instrument(sim) -> None:
        timer = _ChannelTimer(sim.channel)
        sim.channel = timer
        timer_box.append(timer)

    with HISTORY_TIMER:
        result = run(spec, instrument=instrument)
    wall = result.timings["wall_s"]
    rounds = int(result.timings.get("rounds", 0))
    channel_s = timer_box[0].seconds if timer_box else 0.0
    history_s = result.timings.get("history_s", 0.0)
    phases = {
        "channel_s": channel_s,
        "history_s": history_s,
        "protocol_and_engine_s": max(0.0, wall - channel_s - history_s),
    }
    return wall, rounds, phases


def _run_load_scenario(scenario: LoadScenario, *, repeats: int,
                       log: Callable[[str], None] | None) -> BenchResult:
    """Serve a world under a seeded client population; best of ``repeats``.

    "Best" is the trial with the lowest wall time — its service-level
    numbers (latency percentiles, drop counts) travel with it so a
    report row is internally consistent rather than a mix of trials.
    """
    from ..service.loadgen import run_load_sync

    say = log or (lambda msg: None)
    best: dict | None = None
    for trial in range(repeats):
        say(f"  {scenario.name}: load trial {trial + 1}/{repeats} ...")
        spec, profile, config = scenario.make_load()
        report = run_load_sync(spec, profile, config)
        if best is None or report["wall_s"] < best["wall_s"]:
            best = report
    assert best is not None
    return BenchResult(
        name=scenario.name,
        family=scenario.family,
        n=scenario.n,
        description=scenario.description,
        rounds=best["rounds"],
        gated=scenario.gated,
        wall_s=best["wall_s"],
        rounds_per_sec=best["rounds_per_sec"],
        extras={
            "sessions": best["profile"]["sessions"],
            "pattern": best["profile"]["pattern"],
            "worlds": best["profile"].get("worlds", 1),
            "per_world": best.get("per_world", {}),
            "sessions_opened": best["sessions_opened"],
            "peak_sessions": best["peak_sessions"],
            "reconnects": best["reconnects"],
            "proposals_submitted": best["proposals_submitted"],
            "proposals_accepted": best["proposals_accepted"],
            "proposals_per_sec": best["proposals_per_sec"],
            "decisions_observed": best["decisions_observed"],
            "decision_latency_s": best["decision_latency_s"],
            "dropped_events": best["dropped_events"],
            "dropped_samples": best["dropped_samples"],
            "unserved": best["unserved"],
            "invariants": best["invariants"],
        },
    )


def run_scenario(scenario: BenchScenario | LoadScenario, *, repeats: int = 3,
                 reference: bool = True,
                 log: Callable[[str], None] | None = None) -> BenchResult:
    """Benchmark one scenario; wall times are the best of ``repeats``."""
    if isinstance(scenario, LoadScenario):
        return _run_load_scenario(scenario, repeats=repeats, log=log)
    say = log or (lambda msg: None)
    say(f"  {scenario.name}: fast path x{repeats} ...")
    fast_trials = [_time_once(scenario, reference=False)
                   for _ in range(repeats)]
    wall, rounds, phases = min(fast_trials, key=lambda t: t[0])
    result = BenchResult(
        name=scenario.name,
        family=scenario.family,
        n=scenario.n,
        description=scenario.description,
        rounds=rounds,
        gated=scenario.gated,
        wall_s=wall,
        rounds_per_sec=rounds / wall if wall > 0 else 0.0,
        phases=phases,
    )
    if reference:
        say(f"  {scenario.name}: reference path x{repeats} ...")
        ref_trials = [_time_once(scenario, reference=True)
                      for _ in range(repeats)]
        ref_wall, ref_rounds, _ = min(ref_trials, key=lambda t: t[0])
        result.reference_wall_s = ref_wall
        result.reference_rounds_per_sec = (
            ref_rounds / ref_wall if ref_wall > 0 else 0.0)
        if wall > 0:
            result.speedup_vs_reference = ref_wall / wall
    return result


def _scenario_job(job: tuple[str, int, bool]) -> dict:
    """Worker-pool unit: benchmark one registered scenario by name.

    Scenarios carry closures, so the pool ships names and re-resolves
    them in the worker (fork inherits the registry, including any test
    monkeypatching).
    """
    name, repeats, reference = job
    return asdict(run_scenario(scenario_by_name(name),
                               repeats=repeats, reference=reference))


def run_benchmarks(scenarios: Iterable[BenchScenario] = ALL_SCENARIOS, *,
                   repeats: int = 3, reference: bool = True,
                   workers: int = 1,
                   machine_class: str | None = None,
                   log: Callable[[str], None] | None = None) -> dict:
    """Run a scenario matrix and assemble the report dict.

    ``machine_class`` is an operator-assigned label for the hardware
    class the run executed on (e.g. ``"github-ubuntu-24.04"``).  It is
    recorded verbatim in the report; the absolute rounds/sec gate
    (:func:`repro.bench.compare.compare_absolute`) only arms itself when
    a report and a baseline carry the *same* non-empty label, so
    machine-dependent numbers are never compared across machine classes.

    ``workers > 1`` fans scenarios out over the sweep subsystem's worker
    pool (one scenario per process at a time; requires every scenario to
    be resolvable via :func:`~repro.bench.scenarios.scenario_by_name`).
    This is a throughput mode: every measurement — wall times *and* the
    speedup ratio — then reflects a machine loaded by the co-scheduled
    scenarios, so gate comparisons and baseline updates should run
    serially.
    """
    scenarios = list(scenarios)
    if workers > 1:
        for scenario in scenarios:
            # Workers re-resolve by name; a caller-supplied scenario
            # shadowing a registered name would silently measure the
            # registered spec instead.
            if scenario_by_name(scenario.name) is not scenario:
                raise ValueError(
                    f"parallel bench requires registered scenarios, but "
                    f"{scenario.name!r} is not the registered scenario "
                    "of that name"
                )
        say = log or (lambda msg: None)
        say(f"  fanning {len(scenarios)} scenario(s) over "
            f"{workers} workers ...")
        rows = pool_map(
            _scenario_job,
            [(s.name, repeats, reference) for s in scenarios],
            workers=workers,
        )
        results = {s.name: row for s, row in zip(scenarios, rows)}
    else:
        results = {}
        for scenario in scenarios:
            results[scenario.name] = asdict(run_scenario(
                scenario, repeats=repeats, reference=reference, log=log))
    return {
        "schema": SCHEMA,
        "machine_class": machine_class,
        "config": {"repeats": repeats, "reference": reference,
                   "workers": workers},
        "results": results,
    }


def write_report(report: dict, path: str | Path) -> Path:
    path = Path(path)
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return path


def load_report(path: str | Path) -> dict:
    report = json.loads(Path(path).read_text())
    if report.get("schema") != SCHEMA:
        raise ValueError(
            f"{path}: unsupported bench report schema "
            f"{report.get('schema')!r} (expected {SCHEMA})"
        )
    return report
