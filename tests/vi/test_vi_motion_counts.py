"""A VI world where everything moves pays for motion, not per round for
what motion cannot change, counted (CI's proportionality gate runs this).

The world is the benchmark's ``vi-mobile`` shape rebuilt here: 8x8
sites 6 apart, four replicas orbiting each site well inside its region
at 0.01 per round, and eight roaming clients at 0.08 per round, run for
20 virtual rounds (260 real rounds).  Three counts:

* every mover's model is asked for its position once per real round,
  no more (the prebound mover sweep; none of these models can promise
  a round without motion);
* the channel gathers a sender's candidates (a grid walk) far less
  often than senders broadcast: each memo lives until a node within
  its skin is re-snapshotted;
* the regional managers are asked far less often than once per round:
  a sitting leader's advice is reused through its speed-bound tenure.
"""

from __future__ import annotations

import random

from _cores import count_calls
from repro import ExperimentSpec, WorkloadSpec
from repro.contention import RegionalCM
from repro.experiment import DeployedWorld, DeviceSpec, MetricsSpec, VIEmulation
from repro.experiment.runner import run
from repro.geometry import Point
from repro.net import Channel, OrbitMobility, RandomWaypointMobility
from repro.vi import CounterProgram, ScriptedClient, VNSite

SIDE = 8
SPACING = 6.0
REPLICAS_PER_SITE = 4
ROAMERS = 8
VIRTUAL_ROUNDS = 20


def mobile_spec(seed: int = 1) -> ExperimentSpec:
    rng = random.Random(seed)
    sites = [VNSite(i, Point((i % SIDE) * SPACING, (i // SIDE) * SPACING))
             for i in range(SIDE * SIDE)]
    devices = [
        DeviceSpec(mobility=OrbitMobility(
            site.location, radius=rng.uniform(0.10, 0.13), speed=0.01))
        for site in sites for _ in range(REPLICAS_PER_SITE)
    ]
    extent = (SIDE - 1) * SPACING
    for _ in range(ROAMERS):
        start = Point(rng.uniform(0.0, extent), rng.uniform(0.0, extent))
        walk_seed = rng.randrange(1 << 30)
        script = {vr: ("add", rng.randrange(1, 100))
                  for vr in range(VIRTUAL_ROUNDS) if rng.random() < 0.25}
        devices.append(DeviceSpec(
            mobility=RandomWaypointMobility(
                start, arena=(-1.0, -1.0, extent + 1.0, extent + 1.0),
                speed=0.08, seed=walk_seed),
            client=ScriptedClient(script)))
    return ExperimentSpec(
        protocol=VIEmulation(
            programs={site.vn_id: CounterProgram() for site in sites}),
        world=DeployedWorld(sites=tuple(sites), devices=tuple(devices)),
        workload=WorkloadSpec(virtual_rounds=VIRTUAL_ROUNDS),
        metrics=MetricsSpec(metrics=("emulation_gaps",),
                            invariants=("replica_consistency",)),
        keep_trace=False,
    )


def test_a_moving_world_pays_for_motion(monkeypatch):
    counts: dict[str, int] = {}
    for model in (OrbitMobility, RandomWaypointMobility):
        count_calls(monkeypatch, model, ("position_at",), counts)
    count_calls(monkeypatch, Channel, ("_candidates_of",), counts)
    count_calls(monkeypatch, RegionalCM, ("advise",), counts)
    audible = {"senders": 0, "rounds": 0}
    deliver_batch = Channel.deliver_batch

    def noting(self, r, positions, broadcasts, senders, **hint):
        audible["senders"] += len(senders)
        audible["rounds"] += 1
        return deliver_batch(self, r, positions, broadcasts, senders, **hint)

    monkeypatch.setattr(Channel, "deliver_batch", noting)
    result = run(mobile_spec())
    result.assert_ok()

    rounds = audible["rounds"]
    movers = SIDE * SIDE * REPLICAS_PER_SITE + ROAMERS
    managers = SIDE * SIDE
    assert rounds == VIRTUAL_ROUNDS * result.world.clock.rounds_per_virtual_round
    assert counts["position_at"] == movers * rounds
    # Measured: 233 candidate walks for 2 598 senders (0.09).
    assert counts["_candidates_of"] * 5 <= audible["senders"]
    # Measured: 1 728 advise calls for 64 managers x 260 rounds (0.10).
    assert counts["advise"] * 5 <= managers * rounds
