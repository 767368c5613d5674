"""The six workloads: seeded input generators over the public surface.

Each ``make_*`` turns ``(seed, size, tracer)`` into what the program
receives — an :class:`~repro.experiment.ExperimentSpec` (plus, for the
served workloads, a :class:`~repro.service.ServiceConfig` and a client
plan).  The same seed gives the same inputs; components that carry
state (adversaries, waypoint walks, scripted clients) are built fresh
per call, so every pass starts cold.  With a tracer, adversaries and
moving mobility models go into the spec wrapped in its timing proxies.

``SIZES`` holds, per workload, the full shape and the ``--smoke`` shape
(about a twentieth).  Full shapes are sized so one pass takes about
three corrected seconds: long enough that every timed phase dwarfs the
clock, short enough that a ``BENCHMARK.json`` run of ``run_seconds``
fits three or four passes and reports their median.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Any, Callable

from repro.experiment import (
    CHA,
    ClusterWorld,
    DeployedWorld,
    DeviceSpec,
    EnvironmentSpec,
    ExperimentSpec,
    MetricsSpec,
    VIEmulation,
    WorkloadSpec,
)
from repro.geometry import Point
from repro.net import OrbitMobility, RandomLossAdversary, RandomWaypointMobility
from repro.service import ServiceConfig
from repro.vi import CounterProgram, ScriptedClient, VNSite

from .trace import Tracer

#: Wire statistics the runner already collects online; asking for them
#: costs nothing on the hot path and feeds the digest.
WIRE_METRICS = ("rounds", "total_broadcasts", "max_message_size")

SIZES: dict[str, dict[str, dict[str, int]]] = {
    "cha-dense": {"full": {"n": 200, "instances": 2400},
                  "smoke": {"n": 200, "instances": 60}},
    "cha-lossy": {"full": {"n": 100, "instances": 1000},
                  "smoke": {"n": 100, "instances": 60}},
    "vi-static": {"full": {"side": 8, "virtual_rounds": 320},
                  "smoke": {"side": 4, "virtual_rounds": 24}},
    "vi-mobile": {"full": {"side": 8, "virtual_rounds": 150},
                  "smoke": {"side": 4, "virtual_rounds": 14}},
    "svc-tcp": {"full": {"n": 24, "instances": 4800, "audience": 0},
                "smoke": {"n": 24, "instances": 240, "audience": 0}},
    "svc-audience": {"full": {"n": 24, "instances": 3600, "audience": 256},
                     "smoke": {"n": 24, "instances": 180, "audience": 256}},
}


@dataclass(frozen=True)
class SeededProposals:
    """A picklable ``proposer_factory``: node ``i`` proposes
    ``<tag><i>.<instance>`` — the default proposer's shape (distinct,
    totally ordered, constant width per node) carrying the seed."""

    tag: str

    def __call__(self, node: int) -> Callable[[int], str]:
        tag = self.tag
        return lambda k: f"{tag}{node}.{k:06d}"

    def is_default_for(self, value: Any, instance: int) -> bool:
        """Whether ``value`` is some node's own proposal for ``instance``."""
        return (isinstance(value, str) and value.startswith(self.tag)
                and value.endswith(f".{instance:06d}"))


def _tag(seed: int) -> str:
    return f"s{seed % 10000:04d}n"


@dataclass(frozen=True)
class BatchInputs:
    spec: ExperimentSpec
    #: Stepper ticks that yield one more decision: a CHAP instance is
    #: three rounds; an emulation tick is a whole virtual round.
    ticks_per_decision: int


@dataclass(frozen=True)
class ServiceInputs:
    spec: ExperimentSpec
    config: ServiceConfig
    proposals: SeededProposals
    #: Closed-loop TCP proposers (propose -> ack -> own decision -> next).
    tcp_clients: int
    #: In-process ``service.connect()`` listeners.
    audience: int
    #: Proposers stop this many instances before the workload ends, so
    #: no proposal can meet a completed world.
    stop_margin: int = 10


# ----------------------------------------------------------------------
# Section 3: one CHAP cluster
# ----------------------------------------------------------------------

def make_cha_dense(seed: int, size: dict[str, int],
                   tracer: Tracer | None) -> BatchInputs:
    return BatchInputs(
        spec=ExperimentSpec(
            protocol=CHA(proposer_factory=SeededProposals(_tag(seed))),
            world=ClusterWorld(n=size["n"]),
            workload=WorkloadSpec(instances=size["instances"]),
            metrics=MetricsSpec(metrics=WIRE_METRICS),
            keep_trace=False,
        ),
        ticks_per_decision=3,
    )


def make_cha_lossy(seed: int, size: dict[str, int],
                   tracer: Tracer | None) -> BatchInputs:
    adversary = RandomLossAdversary(p_drop=0.10, seed=seed)
    if tracer is not None:
        adversary = tracer.wrap_adversary(adversary)
    instances = size["instances"]
    return BatchInputs(
        spec=ExperimentSpec(
            protocol=CHA(proposer_factory=SeededProposals(_tag(seed))),
            # The channel stabilises three fifths of the way in (three
            # rounds an instance), so the median decision is a lossy one.
            world=ClusterWorld(n=size["n"], rcf=3 * (instances * 3 // 5)),
            environment=EnvironmentSpec(adversary=adversary),
            workload=WorkloadSpec(instances=instances),
            metrics=MetricsSpec(metrics=WIRE_METRICS,
                                invariants=("agreement", "validity")),
            keep_trace=False,
        ),
        ticks_per_decision=3,
    )


# ----------------------------------------------------------------------
# Section 4: a grid of virtual nodes
# ----------------------------------------------------------------------

_SITE_SPACING = 6.0
_REPLICAS_PER_SITE = 4


def _sites(side: int) -> list[VNSite]:
    return [VNSite(i, Point((i % side) * _SITE_SPACING,
                            (i // side) * _SITE_SPACING))
            for i in range(side * side)]


def _script(rng: random.Random, virtual_rounds: int) -> dict[int, Any]:
    """Seeded ``("add", n)`` client messages in a quarter of the rounds."""
    return {vr: ("add", rng.randrange(1, 100))
            for vr in range(virtual_rounds) if rng.random() < 0.25}


def _vi_spec(sites: list[VNSite], devices: list[DeviceSpec],
             virtual_rounds: int) -> ExperimentSpec:
    return ExperimentSpec(
        protocol=VIEmulation(
            programs={site.vn_id: CounterProgram() for site in sites}),
        world=DeployedWorld(sites=tuple(sites), devices=tuple(devices)),
        workload=WorkloadSpec(virtual_rounds=virtual_rounds),
        metrics=MetricsSpec(metrics=WIRE_METRICS + ("emulation_gaps",),
                            invariants=("replica_consistency",)),
        keep_trace=False,
    )


def make_vi_static(seed: int, size: dict[str, int],
                   tracer: Tracer | None) -> BatchInputs:
    rng = random.Random(seed)
    sites = _sites(size["side"])
    virtual_rounds = size["virtual_rounds"]
    # An eighth of the sites have a client on their first replica, so
    # the counters the replicas agree on depend on the seed.
    with_client = set(rng.sample(range(len(sites)), max(1, len(sites) // 8)))
    devices = []
    for site in sites:
        phase = rng.uniform(0.0, 2.0 * math.pi)
        for j in range(_REPLICAS_PER_SITE):
            angle = phase + 2.0 * math.pi * j / _REPLICAS_PER_SITE
            client = (ScriptedClient(_script(rng, virtual_rounds))
                      if j == 0 and site.vn_id in with_client else None)
            devices.append(DeviceSpec(
                mobility=Point(site.location.x + 0.12 * math.cos(angle),
                               site.location.y + 0.12 * math.sin(angle)),
                client=client))
    return BatchInputs(spec=_vi_spec(sites, devices, virtual_rounds),
                       ticks_per_decision=1)


_ROAMERS = 8


def make_vi_mobile(seed: int, size: dict[str, int],
                   tracer: Tracer | None) -> BatchInputs:
    rng = random.Random(seed)
    wrap = tracer.wrap_mobility if tracer is not None else (lambda m: m)
    side = size["side"]
    sites = _sites(side)
    virtual_rounds = size["virtual_rounds"]
    devices = [
        # Replicas circle their site well inside its R1/4 region.
        DeviceSpec(mobility=wrap(OrbitMobility(
            site.location, radius=rng.uniform(0.10, 0.13), speed=0.01)))
        for site in sites for _ in range(_REPLICAS_PER_SITE)
    ]
    extent = (side - 1) * _SITE_SPACING
    arena = (-1.0, -1.0, extent + 1.0, extent + 1.0)
    for _ in range(_ROAMERS):
        start = Point(rng.uniform(0.0, extent), rng.uniform(0.0, extent))
        devices.append(DeviceSpec(
            mobility=wrap(RandomWaypointMobility(
                start, arena=arena, speed=0.08,
                seed=rng.randrange(1 << 30))),
            client=ScriptedClient(_script(rng, virtual_rounds))))
    return BatchInputs(spec=_vi_spec(sites, devices, virtual_rounds),
                       ticks_per_decision=1)


# ----------------------------------------------------------------------
# The served world
# ----------------------------------------------------------------------

def make_service(seed: int, size: dict[str, int],
                 tracer: Tracer | None) -> ServiceInputs:
    proposals = SeededProposals(_tag(seed))
    return ServiceInputs(
        # The world `python -m repro.service` builds, plus the seeded
        # proposer and the free wire statistics.
        spec=ExperimentSpec(
            protocol=CHA(proposer_factory=proposals),
            world=ClusterWorld(n=size["n"]),
            workload=WorkloadSpec(instances=size["instances"]),
            metrics=MetricsSpec(metrics=WIRE_METRICS),
            keep_trace=False,
        ),
        # tick_interval=0: no injected delay, latency is processor time.
        config=ServiceConfig(tick_interval=0.0),
        proposals=proposals,
        tcp_clients=2,
        audience=size["audience"],
    )


# ----------------------------------------------------------------------
# The registry
# ----------------------------------------------------------------------

_MAKERS: dict[str, Callable[[int, dict[str, int], Tracer | None], Any]] = {
    "cha-dense": make_cha_dense,
    "cha-lossy": make_cha_lossy,
    "vi-static": make_vi_static,
    "vi-mobile": make_vi_mobile,
    "svc-tcp": make_service,
    "svc-audience": make_service,
}


def make_inputs(workload: str, seed: int, *, smoke: bool = False,
                tracer: Tracer | None = None) -> BatchInputs | ServiceInputs:
    """What the program receives for ``workload`` at ``seed``."""
    size = SIZES[workload]["smoke" if smoke else "full"]
    return _MAKERS[workload](seed, size, tracer)
