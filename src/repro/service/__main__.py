"""``python -m repro.service`` — serve live worlds over TCP.

Builds a CHA-family cluster world template from CLI flags, pre-creates
``--worlds`` pinned worlds from it (``w1`` … ``wN``), serves them on
the NDJSON wire protocol, releases the world clocks, and exits once the
workloads complete and the sessions have drained.  ``--describe``
validates the configuration and prints it — together with the
machine-readable op/event catalog derived from
:mod:`repro.service.events` — as JSON without opening a socket or
running a round; ``docs/WIRE_PROTOCOL.md`` is pinned against that
catalog by the doc-drift test.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys

from ..core.cha import ROUNDS_PER_INSTANCE
from ..experiment.spec import (
    CHA,
    ClusterWorld,
    ExperimentSpec,
    NaiveRSM,
    TwoPhaseCHA,
    WorkloadSpec,
)
from .events import catalog
from .server import ConsensusService, ServiceConfig

_PROTOCOLS = {
    "cha": CHA,
    "two-phase-cha": TwoPhaseCHA,
    "naive-rsm": NaiveRSM,
}


def build_spec(args: argparse.Namespace) -> ExperimentSpec:
    return ExperimentSpec(
        protocol=_PROTOCOLS[args.protocol](),
        world=ClusterWorld(n=args.nodes, rcf=args.rcf),
        workload=WorkloadSpec(instances=args.instances),
        # A long-running served world must not accumulate an unbounded
        # trace; the differential suite builds its own traced specs.
        keep_trace=False,
    )


def build_config(args: argparse.Namespace) -> ServiceConfig:
    return ServiceConfig(
        host=args.host,
        port=args.port,
        tick_interval=args.tick_interval,
        rounds_per_tick=args.rounds_per_tick,
        queue_limit=args.queue_limit,
        max_sessions=args.max_sessions,
        worlds=args.worlds,
        max_worlds=args.max_worlds,
        idle_world_grace_s=args.idle_grace,
        reaper_interval_s=args.idle_grace / 2 if args.idle_grace > 0 else 0.0,
    )


def describe(args: argparse.Namespace, config: ServiceConfig) -> dict:
    """What ``--describe`` prints: the config plus the wire catalog."""
    return {
        "config": {
            "protocol": args.protocol,
            "world": {"n": args.nodes, "rcf": args.rcf},
            "workload": {"instances": args.instances},
            "service": {
                "host": config.host, "port": config.port,
                "tick_interval": config.tick_interval,
                "rounds_per_tick": config.rounds_per_tick,
                "queue_limit": config.queue_limit,
                "max_sessions": config.max_sessions,
                "worlds": config.worlds,
                "max_worlds": config.max_worlds,
                "idle_world_grace_s": config.idle_world_grace_s,
            },
        },
        "catalog": catalog(),
    }


async def _serve(spec: ExperimentSpec, config: ServiceConfig) -> dict:
    service = ConsensusService(spec, config)
    server = await service.serve_tcp()
    host, port = service.tcp_address
    print(f"repro.service: serving {config.worlds} x {spec.world.n}-node "
          f"{type(spec.protocol).__name__} world(s) on {host}:{port} "
          f"(tick={config.tick_interval}s x {config.rounds_per_tick} rounds)")
    results = await service.run_worlds()
    totals = service.sessions.totals()
    decisions = sum(entry.driver.decisions_published
                    for entry in service.registry)
    await service.shutdown("world complete")
    server.close()
    return {
        "rounds": sum(int(result.timings.get("rounds", 0))
                      for result in results.values()),
        "worlds": len(results),
        "decisions": decisions,
        "invariants": {name: dict(result.invariants)
                       for name, result in results.items()},
        "failed": {entry.name: entry.driver.failed["error"]
                   for entry in service.registry if entry.driver.failed},
        "sessions": totals,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Serve live consensus worlds over newline-delimited "
                    "JSON (see docs/WIRE_PROTOCOL.md).",
    )
    parser.add_argument("--protocol", choices=sorted(_PROTOCOLS),
                        default="cha",
                        help="protocol family to serve (default: %(default)s)")
    parser.add_argument("--nodes", type=int, default=24,
                        help="cluster size (default: %(default)s)")
    parser.add_argument("--instances", type=int, default=1000,
                        help="consensus instances each world runs before "
                             "completing (default: %(default)s)")
    parser.add_argument("--rcf", type=int, default=0,
                        help="contention-stabilisation round (default: 0)")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0,
                        help="TCP port (default: 0 = ephemeral, printed "
                             "at startup)")
    parser.add_argument("--tick-interval", type=float, default=0.05,
                        help="seconds of real time per world tick "
                             "(default: %(default)s; 0 runs flat out)")
    parser.add_argument("--rounds-per-tick", type=int,
                        default=ROUNDS_PER_INSTANCE,
                        help="communication rounds advanced per tick "
                             "(default: %(default)s = one CHA instance)")
    parser.add_argument("--queue-limit", type=int, default=1024,
                        help="per-session event queue bound; a slower "
                             "consumer drops oldest events "
                             "(default: %(default)s)")
    parser.add_argument("--max-sessions", type=int, default=10_000,
                        help="concurrent session cap (default: %(default)s)")
    parser.add_argument("--worlds", type=int, default=1,
                        help="pinned worlds pre-created from the template, "
                             "named w1..wN (default: %(default)s)")
    parser.add_argument("--max-worlds", type=int, default=64,
                        help="cap on live worlds, lazily created ones "
                             "included (default: %(default)s)")
    parser.add_argument("--idle-grace", type=float, default=30.0,
                        help="seconds an unpinned world may sit without "
                             "sessions before eviction (default: %(default)s)")
    parser.add_argument("--describe", action="store_true",
                        help="validate the configuration, print it plus the "
                             "op/event catalog as JSON, and exit without "
                             "serving")
    args = parser.parse_args(argv)

    spec = build_spec(args)
    spec.validate()
    config = build_config(args)
    if args.describe:
        print(json.dumps(describe(args, config), indent=2, sort_keys=True))
        return 0

    summary = _run(spec, config)
    print(f"repro.service: {summary['worlds']} world(s) complete after "
          f"{summary['rounds']} total rounds, "
          f"{summary['decisions']} decisions; "
          f"served {summary['sessions']['opened']} session(s) "
          f"(peak {summary['sessions']['peak']}), invariants "
          f"{summary['invariants']}")
    if summary["failed"]:
        print(f"repro.service: world(s) failed: {summary['failed']}",
              file=sys.stderr)
    return 1 if summary["failed"] else 0


def _run(spec: ExperimentSpec, config: ServiceConfig) -> dict:
    return asyncio.run(_serve(spec, config))


if __name__ == "__main__":
    raise SystemExit(main())
