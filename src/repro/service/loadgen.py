"""Seeded load harness for the consensus service.

Drives one in-process :class:`~.server.ConsensusService` with a
population of closed-loop clients (each proposes, waits for its ack and
the decision of the acked instance, then proposes again) shaped by a
:class:`LoadProfile`:

* ``flash`` — every client attaches at once (flash crowd);
* ``ramp`` — arrivals staggered across :attr:`LoadProfile.ramp_s`;
* ``churn`` — flash attach, but after each observed decision a client
  may disconnect and reconnect as a brand-new session (seeded RNG).

With :attr:`LoadProfile.worlds` > 1 the service pre-creates that many
pinned worlds from the template spec and the population is dealt
round-robin across them (``w1`` … ``wN``); the report then carries a
``per_world`` breakdown (sessions, decisions, latency percentiles,
invariants per world) alongside the aggregate numbers.

The worlds themselves stay deterministic — client traffic only lands
proposals in each world's :class:`~.driver.ProposalLedger` — while the
*measured* numbers (proposals/sec, decision-latency percentiles,
dropped events) characterise the front end under concurrency.
:func:`run_load_sync` is the entrypoint the bench runner calls for
``svc-*`` scenarios.
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass, field, replace

from ..errors import ServiceError
from ..experiment.spec import ExperimentSpec
from ..types import Sentinel
from .server import ConsensusService, InProcessClient, ServiceConfig

PATTERNS = ("flash", "ramp", "churn")


@dataclass(frozen=True)
class LoadProfile:
    """One seeded client population."""

    sessions: int
    pattern: str = "flash"
    proposals_per_session: int = 1
    ramp_s: float = 0.25  #: arrival spread for the ``ramp`` pattern.
    churn_rate: float = 0.5  #: P(reconnect after a decision), ``churn``.
    seed: int = 0
    #: Upper bound on the propose→decision wait.  A decision that was
    #: drop-oldest-evicted from a slow session's queue never arrives, so
    #: an unbounded wait deadlocks the client; a timed-out sample counts
    #: as ``dropped_samples`` and the client moves on.
    decision_wait_s: float = 60.0
    #: Worlds to spread the population across (round-robin, w1..wN).
    worlds: int = 1

    def __post_init__(self) -> None:
        if self.pattern not in PATTERNS:
            raise ValueError(
                f"unknown load pattern {self.pattern!r}; known: {PATTERNS}"
            )
        if self.sessions < 1:
            raise ValueError("sessions must be >= 1")
        if self.decision_wait_s <= 0:
            raise ValueError("decision_wait_s must be positive")
        if self.worlds < 1:
            raise ValueError("worlds must be >= 1")
        if self.worlds > self.sessions:
            raise ValueError("worlds must not exceed sessions (every "
                             "world needs at least one client)")


@dataclass
class _Tally:
    """Mutable counters shared by every client coroutine."""

    sessions_opened: int = 0
    proposals_submitted: int = 0
    proposals_accepted: int = 0
    proposals_rejected: int = 0
    decisions_observed: int = 0
    unserved: int = 0  #: proposals whose decision never arrived.
    reconnects: int = 0
    dropped_events: int = 0
    #: Latency samples abandoned because the decision wait timed out
    #: (the event was evicted from the session queue, or the world is
    #: slower than :attr:`LoadProfile.decision_wait_s`).
    dropped_samples: int = 0
    latencies_s: list[float] = field(default_factory=list)


def percentiles(samples: list[float],
                points: tuple[float, ...] = (0.5, 0.9, 0.99)) -> dict[str, float]:
    """Nearest-rank percentiles plus mean/max/count (empty-safe).

    Each point is reported under ``p<integer percent>`` (``0.99`` →
    ``"p99"``), so two points inside one integer percent — ``0.99`` and
    ``0.999`` — would share a key: that is a :class:`ValueError` naming
    both, never a silently dropped percentile.
    """
    asked: dict[str, float] = {}
    for p in points:
        key = f"p{int(p * 100)}"
        if key in asked:
            raise ValueError(
                f"percentile points {asked[key]!r} and {p!r} both report "
                f"as {key!r}; ask for points at least one percent apart")
        asked[key] = p
    if not samples:
        return {"count": 0}
    ordered = sorted(samples)
    out: dict[str, float] = {}
    for key, p in asked.items():
        rank = min(len(ordered) - 1, max(0, int(p * len(ordered) + 0.5) - 1))
        out[key] = ordered[rank]
    out["mean"] = sum(ordered) / len(ordered)
    out["max"] = ordered[-1]
    out["count"] = len(ordered)
    return out


#: Sentinel: the decision wait exceeded ``decision_wait_s`` — the event
#: was (most likely) drop-oldest-evicted and will never arrive.
_TIMED_OUT = Sentinel(__name__, "_TIMED_OUT")


async def _await_decision(client: InProcessClient, instance: int,
                          wait_s: float) -> dict | object | None:
    """Consume the stream until ``instance`` decides, bounded by ``wait_s``.

    Returns ``None`` if the world completes (or the service shuts down)
    without that decision arriving — which happens legitimately when the
    workload ran out — and :data:`_TIMED_OUT` once ``wait_s`` elapses
    with no decision.  The timeout is what keeps a closed-loop client
    from waiting forever on a decision event the slow-consumer policy
    evicted from its queue before it was read.
    """
    deadline = time.monotonic() + wait_s
    while True:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            return _TIMED_OUT
        try:
            event = await asyncio.wait_for(client.next_event(), remaining)
        except asyncio.TimeoutError:
            return _TIMED_OUT
        kind = event["type"]
        if kind == "decision" and event["instance"] == instance:
            return event
        if kind in ("world-complete", "shutdown"):
            return None


async def _client_loop(service: ConsensusService, profile: LoadProfile,
                       rng: random.Random, index: int, tally: _Tally,
                       world: str) -> None:
    if profile.pattern == "ramp" and profile.sessions > 1:
        await asyncio.sleep(profile.ramp_s * index / (profile.sessions - 1))
    try:
        client = service.connect(client=f"loadgen-{index}", world=world)
    except ServiceError:
        return
    driver = service.registry.get(world).driver
    tally.sessions_opened += 1
    await client.next_event()  # the welcome snapshot
    try:
        for attempt in range(profile.proposals_per_session):
            if driver.complete:
                tally.unserved += (profile.proposals_per_session - attempt)
                break
            sent_at = time.perf_counter()
            tally.proposals_submitted += 1
            client.propose(f"load{index}.{attempt}", request_id=str(attempt))
            # Closed loop: wait for the ack (carrying the instance the
            # proposal landed in), then for that instance's decision.
            instance = None
            while True:
                event = await client.next_event()
                if event["type"] == "ack" and event.get("id") == str(attempt):
                    instance = event["instance"]
                    break
                if event["type"] == "error" and event.get("id") == str(attempt):
                    tally.proposals_rejected += 1
                    break
                if event["type"] in ("world-complete", "shutdown"):
                    break
            if instance is None:
                tally.unserved += (profile.proposals_per_session - attempt)
                break
            tally.proposals_accepted += 1
            decision = await _await_decision(client, instance,
                                             profile.decision_wait_s)
            if decision is _TIMED_OUT:
                # The decision exists in the world but its event never
                # reached this session (evicted, or simply too slow):
                # abandon the latency sample and keep the loop closed.
                tally.dropped_samples += 1
                continue
            if decision is None:
                tally.unserved += (profile.proposals_per_session - attempt)
                break
            tally.decisions_observed += 1
            tally.latencies_s.append(time.perf_counter() - sent_at)
            if (profile.pattern == "churn"
                    and attempt + 1 < profile.proposals_per_session
                    and rng.random() < profile.churn_rate):
                tally.dropped_events += client.dropped
                client.close()
                tally.reconnects += 1
                try:
                    client = service.connect(client=f"loadgen-{index}r",
                                             world=world)
                except ServiceError:
                    tally.unserved += (profile.proposals_per_session
                                       - attempt - 1)
                    return
                tally.sessions_opened += 1
                await client.next_event()
    finally:
        tally.dropped_events += client.dropped
        client.close()


async def run_load(spec: ExperimentSpec, profile: LoadProfile,
                   config: ServiceConfig = ServiceConfig()) -> dict:
    """Serve ``spec``, drive the client population, report the numbers.

    ``profile.worlds`` wins over ``config.worlds``: the service is built
    with exactly the world count the population is dealt across.
    """
    if config.worlds != profile.worlds:
        config = replace(config, worlds=profile.worlds)
    service = ConsensusService(spec, config)
    world_names = [f"w{i + 1}" for i in range(profile.worlds)]
    rng = random.Random(profile.seed)
    tallies = {name: _Tally() for name in world_names}
    client_rngs = [random.Random(rng.getrandbits(64))
                   for _ in range(profile.sessions)]
    started = time.perf_counter()
    clients = [
        asyncio.ensure_future(
            _client_loop(service, profile, client_rngs[i], i,
                         tallies[world_names[i % profile.worlds]],
                         world_names[i % profile.worlds]))
        for i in range(profile.sessions)
    ]
    service.start_world()
    await asyncio.gather(*clients)
    # Clients done; let the worlds finish so rounds/sec means something.
    results = await service.run_worlds()
    wall_s = time.perf_counter() - started
    await service.shutdown()
    drivers = {name: service.registry.get(name).driver
               for name in world_names}
    rounds = sum(driver.current_round for driver in drivers.values())
    tally = _Tally()
    for t in tallies.values():
        tally.sessions_opened += t.sessions_opened
        tally.proposals_submitted += t.proposals_submitted
        tally.proposals_accepted += t.proposals_accepted
        tally.proposals_rejected += t.proposals_rejected
        tally.decisions_observed += t.decisions_observed
        tally.unserved += t.unserved
        tally.reconnects += t.reconnects
        tally.dropped_events += t.dropped_events
        tally.dropped_samples += t.dropped_samples
        tally.latencies_s.extend(t.latencies_s)
    sessions_per_world = {
        name: sum(1 for i in range(profile.sessions)
                  if world_names[i % profile.worlds] == name)
        for name in world_names
    }
    per_world = {
        name: {
            "sessions": sessions_per_world[name],
            "sessions_opened": tallies[name].sessions_opened,
            "rounds": drivers[name].current_round,
            "proposals_accepted": tallies[name].proposals_accepted,
            "decisions_observed": tallies[name].decisions_observed,
            "unserved": tallies[name].unserved,
            "dropped_events": tallies[name].dropped_events,
            "dropped_samples": tallies[name].dropped_samples,
            "decision_latency_s": percentiles(tallies[name].latencies_s),
            "world_decisions": drivers[name].decisions_published,
            "invariants": dict(results[name].invariants)
            if name in results else {},
        }
        for name in world_names
    }
    # Aggregate invariants: ok only when every world's verdict is ok.
    invariants: dict[str, str] = {}
    for name in world_names:
        for key, verdict in per_world[name]["invariants"].items():
            if verdict != "ok":
                invariants[key] = f"{name}: {verdict}"
            elif key not in invariants:
                invariants[key] = verdict
    return {
        "profile": {
            "pattern": profile.pattern,
            "sessions": profile.sessions,
            "proposals_per_session": profile.proposals_per_session,
            "seed": profile.seed,
            "worlds": profile.worlds,
        },
        "world": {
            "n": next(iter(drivers.values())).nodes,
            "instances": spec.workload.instances,
            "rounds_per_tick": config.rounds_per_tick,
        },
        "wall_s": wall_s,
        "rounds": rounds,
        "rounds_per_sec": rounds / wall_s if wall_s > 0 else 0.0,
        "sessions_opened": tally.sessions_opened,
        "peak_sessions": service.sessions.peak,
        "reconnects": tally.reconnects,
        "proposals_submitted": tally.proposals_submitted,
        "proposals_accepted": tally.proposals_accepted,
        "proposals_rejected": tally.proposals_rejected,
        "proposals_per_sec": (tally.proposals_submitted / wall_s
                              if wall_s > 0 else 0.0),
        "decisions_observed": tally.decisions_observed,
        "unserved": tally.unserved,
        "dropped_events": tally.dropped_events,
        "dropped_samples": tally.dropped_samples,
        "decision_latency_s": percentiles(tally.latencies_s),
        "world_decisions": sum(d.decisions_published
                               for d in drivers.values()),
        "per_world": per_world,
        "invariants": invariants,
    }


def run_load_sync(spec: ExperimentSpec, profile: LoadProfile,
                  config: ServiceConfig = ServiceConfig()) -> dict:
    """Blocking wrapper (what the bench runner calls)."""
    return asyncio.run(run_load(spec, profile, config))
