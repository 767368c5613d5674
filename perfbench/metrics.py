"""The catalogue: workloads and metrics by name.

``WORKLOADS``, ``END_TO_END`` and ``PER_LAYER`` are what
``BENCHMARK.json`` lists (a self-test holds the two equal).  Every workload reports every name; a
layer a workload does not pass through reads 0.

All ``*_s`` / ``*_ms`` values are *corrected* seconds (see
:mod:`perfbench.hostclock`); ``host.*`` carries the uncorrected wall
time and the speed factor that relates the two.
"""

from __future__ import annotations

#: name -> one line on why the workload exists.  The input generators
#: live in :mod:`perfbench.workloads` under the same names.
WORKLOADS: dict[str, str] = {
    "cha-dense":
        "Section 3 after stabilisation: 200-node CHAP cluster, no adversary; "
        "dispatch, slotted core and history fold dominate, channel on its "
        "single-sender post-rcf route",
    "cha-lossy":
        "same channel used differently: 10% seeded loss until rcf drives the "
        "pre-rcf tentative-map/drop route, bottoms and colour divergence; "
        "the n*k^2 agreement/validity checkers run in finish",
    "vi-static":
        "Section 4 steady state: 8x8 virtual nodes, 4 static replicas each; "
        "the phase-table engine reuses its role table every virtual round",
    "vi-mobile":
        "same engine used differently: every replica orbits, 8 roaming "
        "clients; positions change every round (mobility, index updates, "
        "hand-off, table rebuilds)",
    "svc-tcp":
        "the real-TCP row: 24-node served world, 2 closed-loop loopback "
        "clients on one asyncio loop; parse, ledger, tick, harvest, fan-out, "
        "encode, socket",
    "svc-audience":
        "svc-tcp plus 256 in-process sessions, half prefix-filtered, a few "
        "never drained: fan-out (filters, queue puts, drop-oldest) does the "
        "work here and almost none on svc-tcp",
}

#: name, unit, better, regression bound (share of the parent's median).
END_TO_END: tuple[tuple[str, str, str, float], ...] = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.15),
    ("rounds_per_s", "1/s", "higher", 0.15),
    ("decisions_per_s", "1/s", "higher", 0.15),
    ("decision_latency_p50_ms", "ms", "lower", 0.15),
    ("peak_rss_mb", "MB", "lower", 0.10),
)

#: name, unit, better.
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    ("experiment.build_s", "s", "lower"),
    ("experiment.step_s", "s", "lower"),
    ("experiment.finish_s", "s", "lower"),
    ("step.self_s", "s", "lower"),
    ("net.channel.deliver_s", "s", "lower"),
    ("net.channel.calls", "count", "lower"),
    ("net.channel.senders", "count", "lower"),
    ("net.adversary.drops_s", "s", "lower"),
    ("net.adversary.calls", "count", "lower"),
    ("contention.advise_s", "s", "lower"),
    ("contention.feedback_s", "s", "lower"),
    ("contention.calls", "count", "lower"),
    ("contention.contenders", "count", "lower"),
    ("contention.granted", "count", "lower"),
    ("contention.grant_ratio", "ratio", "higher"),
    ("net.mobility.position_s", "s", "lower"),
    ("net.mobility.calls", "count", "lower"),
    ("service.driver.tick_s", "s", "lower"),
    ("service.driver.ticks", "count", "lower"),
    ("service.stepper.step_s", "s", "lower"),
    ("service.driver.harvest_s", "s", "lower"),
    ("service.bus.publish_s", "s", "lower"),
    ("service.bus.events", "count", "lower"),
    ("service.bus.deliveries", "count", "lower"),
    ("service.bus.pass_ratio", "ratio", "higher"),
    ("service.queue.dropped", "count", "lower"),
    ("service.events.encode_us", "us", "lower"),
    ("service.events.parse_us", "us", "lower"),
    ("service.events.encoded", "count", "lower"),
    ("service.loop.outside_tick_s", "s", "lower"),
    ("service.client.self_s", "s", "lower"),
    ("service.ticks_per_decision", "ratio", "lower"),
    ("service.proposals_won_ratio", "ratio", "higher"),
    ("sim.rounds", "count", "higher"),
    ("sim.total_broadcasts", "count", "lower"),
    ("sim.max_message_size", "count", "lower"),
    ("sim.decided_instances", "count", "higher"),
    ("sim.bottom_rate", "ratio", "lower"),
    ("sim.convergence_instance", "count", "lower"),
    ("sim.emulation_gaps", "count", "lower"),
    ("latency.tail_ms", "ms", "lower"),
    ("latency.tail_percentile", "%", "higher"),
    ("latency.samples", "count", "higher"),
    ("host.speed_factor", "ratio", "lower"),
    ("host.raw_wall_s", "s", "lower"),
    ("host.calibration_samples", "count", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}
