"""Seeded benchmark scenarios over every protocol family.

Each scenario is a pure description that builds a fresh
:class:`~repro.experiment.spec.ExperimentSpec` on demand, so repeated
trials never share mutable state (seeded adversaries and mobility models
are re-constructed per trial and replay identically).

The node range spans 50-1000 physical nodes.  ``e8-majority-200`` and
``e8-cha-200`` are the E8-style headliners: the two columns of benchmark
E1.5/E8 (CHAP and the majority-quorum RSM sharing one collision-prone
channel) at 200 nodes, which is where the engine's speedup over the
reference paths (all-pairs channel + re-walking history fold) is
asserted by the acceptance tests.  ``cha-1k-spread`` is the ROADMAP
scale-out world: a 1000-node ring spread far beyond R2, where the
spatial grid index is near-O(senders) while the reference channel stays
all-pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

from ..experiment import (
    CHA,
    CheckpointCHA,
    ClusterWorld,
    DeployedWorld,
    DeviceSpec,
    ExperimentSpec,
    MajorityRSM,
    MetricsSpec,
    NaiveRSM,
    TwoPhaseCHA,
    VIEmulation,
    WorkloadSpec,
)
from ..geometry import Point
from ..net import RandomLossAdversary
from ..service.loadgen import LoadProfile
from ..service.server import ServiceConfig
from ..vi.program import CounterProgram
from ..vi.schedule import VNSite


def _count_reducer(state: Any, k: int, value: Any) -> Any:
    """Checkpoint reducer: fold decided instances into a running count."""
    return (state or 0) + 1


@dataclass(frozen=True)
class BenchScenario:
    """One named, deterministic benchmark configuration."""

    name: str
    family: str
    #: Physical node / device count.
    n: int
    #: Human description for reports.
    description: str
    #: Builds a fresh spec (fresh seeded components) per trial.
    make_spec: Callable[[], ExperimentSpec]
    #: Part of the reduced CI smoke matrix?
    quick: bool = False
    #: Eligible for the speedup regression gate?  Scenarios dominated by
    #: an accelerated phase — the indexed channel or, since the
    #: incremental history engine, the CHA family's fold — carry a
    #: stable speedup ratio.  Scenarios whose ratio sits within
    #: run-to-run noise (adversary-RNG-bound, or GC'd folds that never
    #: grow) are reported but not gated.
    gated: bool = False


@dataclass(frozen=True)
class LoadScenario:
    """One named, seeded service load-test configuration.

    The ``svc-*`` rows of the matrix: instead of timing a batch run,
    these serve a world through :class:`repro.service.ConsensusService`
    and drive it with a seeded client population
    (:mod:`repro.service.loadgen`).  ``n`` is the *concurrent session*
    count; the reported ``rounds``/``rounds_per_sec`` are the served
    world's, and the service-level numbers (proposals/sec, decision
    latency percentiles, dropped events) land in
    :attr:`~repro.bench.runner.BenchResult.extras`.  Load scenarios are
    never speedup-gated (there is no reference path to ratio against);
    their trend lives in BENCH_history.jsonl like everyone else's.
    """

    name: str
    family: str
    #: Concurrent client sessions (the load, not the world size).
    n: int
    description: str
    #: Builds fresh (spec, profile, config) per trial.
    make_load: Callable[[], tuple[ExperimentSpec, LoadProfile, ServiceConfig]]
    quick: bool = False
    gated: bool = False


# ----------------------------------------------------------------------
# Cluster worlds (Section 3 geometry: everyone within R1/2)
# ----------------------------------------------------------------------

def _cluster(protocol: Any, n: int, *, instances: int | None = None,
             rounds: int | None = None, adversary=None,
             rcf: int = 0,
             cluster_radius: float | None = None) -> Callable[[], ExperimentSpec]:
    def make() -> ExperimentSpec:
        spec = ExperimentSpec(
            protocol=protocol,
            world=ClusterWorld(n=n, rcf=rcf, cluster_radius=cluster_radius),
            workload=WorkloadSpec(instances=instances, rounds=rounds),
            keep_trace=False,
        )
        if adversary is not None:
            spec = spec.override(environment__adversary=adversary())
        return spec
    return make


# ----------------------------------------------------------------------
# Deployed world (Section 4): a corridor of virtual nodes under load
# ----------------------------------------------------------------------

def _vi_grid(n_sites: int, replicas_per_vn: int,
             virtual_rounds: int) -> Callable[[], ExperimentSpec]:
    def make() -> ExperimentSpec:
        spacing = 6.0
        cols = max(1, int(math.isqrt(n_sites)))
        sites = [
            VNSite(i, Point((i % cols) * spacing, (i // cols) * spacing))
            for i in range(n_sites)
        ]
        devices = []
        for site in sites:
            for j in range(replicas_per_vn):
                angle = 2 * math.pi * j / replicas_per_vn + 0.5
                devices.append(DeviceSpec(mobility=Point(
                    site.location.x + 0.12 * math.cos(angle),
                    site.location.y + 0.12 * math.sin(angle),
                )))
        return ExperimentSpec(
            protocol=VIEmulation(
                programs={s.vn_id: CounterProgram() for s in sites},
            ),
            world=DeployedWorld(sites=tuple(sites), devices=tuple(devices)),
            workload=WorkloadSpec(virtual_rounds=virtual_rounds),
            keep_trace=False,
        )
    return make


# ----------------------------------------------------------------------
# Served worlds (repro.service) under seeded client populations
# ----------------------------------------------------------------------

def _svc(sessions: int, pattern: str, *, n: int = 24, instances: int = 60,
         proposals_per_session: int = 2, queue_limit: int = 1024,
         tick_interval: float = 0.0, ramp_s: float = 0.25,
         seed: int = 0, worlds: int = 1,
         ) -> Callable[[], tuple[ExperimentSpec, LoadProfile,
                                 ServiceConfig]]:
    def make() -> tuple[ExperimentSpec, LoadProfile, ServiceConfig]:
        spec = ExperimentSpec(
            protocol=CHA(),
            world=ClusterWorld(n=n),
            workload=WorkloadSpec(instances=instances),
            metrics=MetricsSpec(metrics=("rounds",),
                                invariants=("agreement", "validity")),
            keep_trace=False,
        )
        profile = LoadProfile(
            sessions=sessions, pattern=pattern,
            proposals_per_session=proposals_per_session,
            ramp_s=ramp_s, seed=seed, worlds=worlds,
        )
        config = ServiceConfig(queue_limit=queue_limit,
                               tick_interval=tick_interval,
                               decision_log_limit=32, worlds=worlds)
        return spec, profile, config
    return make


#: The benchmark matrix.  Round budgets are sized so each scenario runs
#: in roughly 0.1-1 s on the fast path — long enough to time reliably,
#: short enough that the full matrix (fast + reference) stays minutes.
ALL_SCENARIOS: tuple[BenchScenario | LoadScenario, ...] = (
    BenchScenario(
        name="cha-50", family="cha", n=50, quick=True,
        description="plain CHAP, 50-node cluster, 60 instances "
                    "(informational: the ~0.03s fast wall is too short "
                    "for a stable speedup ratio)",
        make_spec=_cluster(CHA(), 50, instances=60),
    ),
    BenchScenario(
        name="e8-cha-200", family="cha", n=200, quick=True, gated=True,
        description="E8 CHAP column at 200 nodes (600-round budget)",
        make_spec=_cluster(CHA(), 200, instances=200),
    ),
    BenchScenario(
        name="cha-400", family="cha", n=400, gated=True,
        description="plain CHAP, 400-node cluster",
        make_spec=_cluster(CHA(), 400, instances=60),
    ),
    BenchScenario(
        name="cha-1k-spread", family="cha", n=1000,
        description="1000-node spread-out ring (multi-cell grid; each "
                    "node hears only its neighbours) — the ROADMAP "
                    "scale-out world where the index is near-O(senders). "
                    "Informational: the ~10x ratio swings with world-"
                    "build overhead on the short 18-round run",
        make_spec=_cluster(CHA(), 1000, instances=6, cluster_radius=40.0),
    ),
    BenchScenario(
        name="e8-majority-200", family="majority-rsm", n=200, quick=True,
        gated=True,
        description="E8 majority-RSM column at 200 nodes (600-round budget)",
        make_spec=_cluster(MajorityRSM(), 200, rounds=600),
    ),
    BenchScenario(
        name="majority-400", family="majority-rsm", n=400, gated=True,
        description="majority RSM, 400-node cluster",
        make_spec=_cluster(MajorityRSM(), 400, rounds=500),
    ),
    BenchScenario(
        name="checkpoint-cha-100", family="checkpoint-cha", n=100, quick=True,
        description="checkpoint-CHA (fold-and-GC), 100-node cluster",
        make_spec=_cluster(
            CheckpointCHA(reducer=_count_reducer, initial_state=0),
            100, instances=80,
        ),
    ),
    BenchScenario(
        name="two-phase-cha-200", family="two-phase-cha", n=200,
        description="ablation A1 (no veto-2), 200-node cluster",
        make_spec=_cluster(TwoPhaseCHA(), 200, instances=120),
    ),
    BenchScenario(
        name="naive-rsm-50", family="naive-rsm", n=50,
        description="full-history strawman, 50-node cluster",
        make_spec=_cluster(NaiveRSM(), 50, instances=50),
    ),
    BenchScenario(
        name="cha-lossy-100", family="cha", n=100,
        description="CHAP under 10% seeded loss with rcf=120 (pre-"
                    "stabilisation adversary path)",
        make_spec=_cluster(
            CHA(), 100, instances=80, rcf=120,
            adversary=lambda: RandomLossAdversary(p_drop=0.10, seed=7),
        ),
    ),
    BenchScenario(
        name="vi-grid-64", family="vi", n=64, quick=True,
        description="VI emulation: 16-site grid, 4 replicas each "
                    "(phase-table engine vs the per-device reference "
                    "dispatch)",
        make_spec=_vi_grid(16, 4, virtual_rounds=30),
    ),
    BenchScenario(
        name="vi-grid-256", family="vi", n=256,
        description="VI emulation: 64-site grid, 4 replicas each — the "
                    "phase-table engine's scale row. Informational like "
                    "vi-grid-64: the ratio also folds in the slotted-"
                    "core and history switches, so it is recorded but "
                    "ungated until it proves stable across machine "
                    "classes",
        make_spec=_vi_grid(64, 4, virtual_rounds=15),
    ),
    LoadScenario(
        name="svc-smoke", family="service", n=200, quick=True,
        description="served 24-node CHAP world, 200-session flash crowd "
                    "(the CI service-load smoke)",
        make_load=_svc(200, "flash"),
    ),
    LoadScenario(
        name="svc-churn-500", family="service", n=500,
        description="served 24-node CHAP world, 500 churny sessions "
                    "(seeded reconnect after half the decisions)",
        make_load=_svc(500, "churn", instances=80,
                       proposals_per_session=3, seed=11),
    ),
    LoadScenario(
        name="svc-ramp-500", family="service", n=500,
        description="served 24-node CHAP world on a 2ms tick, 500 "
                    "sessions arriving across a 150ms ramp (open-loop "
                    "arrivals, closed-loop proposing)",
        make_load=_svc(500, "ramp", instances=100, tick_interval=0.002,
                       ramp_s=0.15, seed=5),
    ),
    LoadScenario(
        name="svc-flash-1k", family="service", n=1000,
        description="served 30-node CHAP world, a 1000-session flash "
                    "crowd all attached before round 1 — the "
                    "concurrency headliner (peak sessions == 1000)",
        make_load=_svc(1000, "flash", n=30, instances=100,
                       proposals_per_session=3, seed=7),
    ),
    LoadScenario(
        name="svc-multi-8x250", family="service", n=2000,
        description="8 served 24-node CHAP worlds on one loop, 250 "
                    "sessions flash-attached per world (2000 total); "
                    "per-world p99 decision latency in extras.per_world",
        make_load=_svc(2000, "flash", instances=40,
                       proposals_per_session=2, seed=13, worlds=8),
    ),
)

QUICK_SCENARIOS: tuple[BenchScenario | LoadScenario, ...] = tuple(
    s for s in ALL_SCENARIOS if s.quick
)


def scenario_by_name(name: str) -> BenchScenario | LoadScenario:
    for scenario in ALL_SCENARIOS:
        if scenario.name == name:
            return scenario
    known = ", ".join(s.name for s in ALL_SCENARIOS)
    raise KeyError(f"unknown bench scenario {name!r}; known: {known}")
