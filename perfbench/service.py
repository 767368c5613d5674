"""One pass of a served workload (``svc-*``): a :class:`ConsensusService`
behind ``serve_tcp()`` on loopback, closed-loop NDJSON proposers, and —
for ``svc-audience`` — in-process listeners, all on one asyncio loop in
one process (a server in a second process moved the median latency by
half between runs on the 2-CPU boxes this runs on).

The load generator, the latency sampling and the decision checks are the
harness's own; nothing here imports ``repro.service.loadgen``.
"""

from __future__ import annotations

import asyncio
import json
import os.path
from time import perf_counter
from typing import Any

from repro.service import ConsensusService, encode_event, parse_request

from .batch import cha_outcome
from .hostclock import HostClock
from .record import RawPass
from .trace import Tracer
from .workloads import SeededProposals, ServiceInputs

#: Every this-many-th audience session is never drained, so its queue
#: fills and the drop-oldest policy runs.
STALLED_EVERY = 16


class Proposer:
    """One closed-loop TCP client: propose, await the ack, await the
    decision of the instance the ack named, propose again."""

    def __init__(self, index: int, inputs: ServiceInputs, clock: HostClock,
                 capture: bool) -> None:
        self.index = index
        self.tag = f"{inputs.proposals.tag}c{index}."
        self.stop_after = (inputs.spec.workload.instances
                           - inputs.stop_margin)
        self.clock = clock
        self.proposed = 0
        self.errors = 0
        #: instance -> values this client was acked for in it.
        self.acked: dict[int, list[str]] = {}
        #: instance -> (value, agreement) of every decision event seen.
        self.decisions: dict[int, tuple[Any, str]] = {}
        self.latencies: list[tuple[float, float]] = []
        self.won = 0
        self.completed_at: float | None = None
        self.world_complete: dict | None = None
        #: Direct (non-bus) events received: welcome, acks, errors.
        self.direct_events = 0
        #: Host seconds of this client's own work between awaits.
        self.self_s = 0.0
        self.sent_lines: list[bytes] | None = [] if capture else None
        self.received_lines: list[bytes] | None = [] if capture else None
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None

    def _send(self, request: dict) -> None:
        line = (json.dumps(request) + "\n").encode("utf-8")
        if self.sent_lines is not None:
            self.sent_lines.append(line)
        self._writer.write(line)

    async def connect(self, host: str, port: int) -> None:
        self._reader, self._writer = await asyncio.open_connection(host, port)
        self._send({"op": "hello", "client": f"perfbench-{self.index}"})
        welcome = json.loads(await self._reader.readline())
        if welcome.get("type") != "welcome":
            raise RuntimeError(f"expected welcome, got {welcome!r}")
        self.direct_events += 1

    def _propose(self) -> tuple[str, float]:
        self.proposed += 1
        value = f"{self.tag}{self.proposed:06d}"
        sent_at = perf_counter()
        self._send({"op": "propose", "value": value})
        return value, sent_at

    async def run(self) -> None:
        """Propose in a closed loop until the world completes."""
        work_now = self.clock.work_now
        readline = self._reader.readline
        value, sent_at = self._propose()
        awaiting: int | None = None  # the instance our proposal landed in
        while True:
            line = await readline()
            if not line:
                raise RuntimeError("service closed the connection early")
            now = perf_counter()
            began = work_now()
            if self.received_lines is not None:
                self.received_lines.append(line)
            event = json.loads(line)
            kind = event["type"]
            if kind == "decision":
                instance = event["instance"]
                self.decisions[instance] = (event["value"],
                                            event["agreement"])
                if instance == awaiting:
                    self.latencies.append((sent_at, now))
                    self.won += event["value"] == value
                    awaiting = None
                    if instance < self.stop_after:
                        value, sent_at = self._propose()
            elif kind == "ack":
                self.direct_events += 1
                awaiting = event["instance"]
                self.acked.setdefault(awaiting, []).append(value)
            elif kind == "error":
                self.direct_events += 1
                self.errors += 1
            elif kind == "world-complete":
                self.completed_at = now
                self.world_complete = event
                return
            self.self_s += work_now() - began

    async def close(self) -> None:
        self._writer.close()
        await self._writer.wait_closed()


def check_decisions(decisions: dict[int, tuple[Any, str]],
                    acked: dict[int, list[str]],
                    proposals: SeededProposals, instances: int) -> int:
    """How many of instances ``1..instances`` went wrong: no decision
    seen, a decision without agreement, or a decided value that is
    neither one a client was acked for in that instance nor — when no
    client was — a node's own proposal for it."""
    failed = 0
    for k in range(1, instances + 1):
        if k not in decisions:
            failed += 1
            continue
        value, agreement = decisions[k]
        if agreement != "ok":
            failed += 1
        elif k in acked:
            failed += value not in acked[k]
        else:
            failed += not proposals.is_default_for(value, k)
    return failed


async def _serve(inputs: ServiceInputs, clock: HostClock,
                 tracer: Tracer | None) -> RawPass:
    instances = inputs.spec.workload.instances
    service = ConsensusService(inputs.spec, inputs.config)
    if tracer is not None:
        tracer.instrument_driver(service.driver)
    await service.serve_tcp()
    host, port = service.tcp_address
    proposers = [Proposer(i, inputs, clock, capture=tracer is not None)
                 for i in range(inputs.tcp_clients)]
    await asyncio.gather(*(p.connect(host, port) for p in proposers))
    audience = [service.connect(client=f"audience-{i}")
                for i in range(inputs.audience)]
    for listener in audience[1::2]:
        # Odd listeners only want decisions some client's value won.
        listener.subscribe_prefix(f"{inputs.proposals.tag}c")
    drained = [listener for i, listener in enumerate(audience)
               if i % STALLED_EVERY]
    t_ready = perf_counter()

    async def drain_audience() -> None:
        """Every live listener empties its queue once per loop turn."""
        while any(p.completed_at is None for p in proposers):
            for listener in drained:
                listener.drain()
            await asyncio.sleep(0)

    t_released = perf_counter()
    service.start_world()
    await asyncio.gather(drain_audience(), *(p.run() for p in proposers))
    t_complete = max(p.completed_at for p in proposers)

    sessions = service.sessions.sessions()
    enqueued = sum(s.queue.seq for s in sessions)
    dropped = sum(s.queue.dropped for s in sessions)
    result = service.driver.result
    for p in proposers:
        await p.close()
    await service.shutdown("perfbench pass complete")

    # -- checks -----------------------------------------------------------
    first = proposers[0]
    acked: dict[int, list[str]] = {}
    for p in proposers:
        for k, values in p.acked.items():
            acked.setdefault(k, []).extend(values)
    failed = check_decisions(first.decisions, acked, inputs.proposals,
                             instances)
    for p in proposers:
        failed += p.errors
        failed += p.decisions != first.decisions
    latencies = sorted(t for p in proposers for t in p.latencies)
    proposed = sum(p.proposed for p in proposers)
    _, _, stats = cha_outcome(result)
    # Which instance a proposal lands in depends on loop scheduling, so
    # the decided values themselves stay out of the digest (they are
    # checked against the acks above); what they all share — the seed's
    # tag — goes in.
    del stats["decided_values_sha256"]
    stats["decided_values_prefix"] = os.path.commonprefix(
        [value for value, _ in first.decisions.values()])
    stats.update({f"sim.{name}": result.metrics[name]
                  for name in ("rounds", "total_broadcasts",
                               "max_message_size")})
    stats["decisions_published"] = first.world_complete["decisions"]

    layers: dict[str, float] = {}
    if tracer is not None:
        layers = tracer.layers()
        # Events that reached a queue through the bus: everything
        # enqueued, minus what sessions were sent directly.
        direct = (sum(p.direct_events for p in proposers)
                  + len(audience) + len(audience[1::2]))
        deliveries = enqueued - direct
        events = layers["service.bus.events"]
        layers.update({
            "service.driver.harvest_s": (
                layers["service.driver.tick_s"]
                - layers["service.stepper.step_s"]
                - layers["service.bus.publish_s"]),
            "service.bus.deliveries": deliveries,
            "service.bus.pass_ratio": deliveries / (events * len(sessions)),
            "service.queue.dropped": dropped,
            "service.client.self_s": sum(p.self_s for p in proposers),
            "service.ticks_per_decision": (
                layers["service.driver.ticks"] / len(latencies)),
            "service.proposals_won_ratio": (
                sum(p.won for p in proposers) / proposed),
            **_wire_costs(proposers),
        })
    return RawPass(
        t_ready=t_ready,
        wall=(t_released, t_complete), stepping=(t_released, t_complete),
        rounds=result.simulator.current_round,
        latencies=latencies, decisions=len(latencies),
        ops_attempted=proposed, ops_failed=failed,
        invariants=dict(first.world_complete["invariants"]), stats=stats,
        layers=layers,
    )


def _wire_costs(proposers: list[Proposer]) -> dict[str, float]:
    """The service's NDJSON codec, timed offline over the lines this
    pass really carried: microseconds per ``parse_request`` of a request
    line and per ``encode_event`` of an event."""
    requests = [line for p in proposers for line in p.sent_lines]
    events = [json.loads(line) for p in proposers
              for line in p.received_lines]
    t0 = perf_counter()
    for line in requests:
        parse_request(line)
    t1 = perf_counter()
    for event in events:
        encode_event(event)
    t2 = perf_counter()
    return {
        "service.events.parse_us": (t1 - t0) / len(requests) * 1e6,
        "service.events.encode_us": (t2 - t1) / len(events) * 1e6,
        "service.events.encoded": len(events),
    }


def run_service(inputs: ServiceInputs, clock: HostClock,
                tracer: Tracer | None) -> RawPass:
    return asyncio.run(_serve(inputs, clock, tracer))
