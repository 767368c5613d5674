"""Multi-world isolation: registry, attach/detach, eviction, errors.

The satellite coverage ISSUE 10 asks for: sessions attaching and
detaching across worlds, per-world queue bounds and drop-oldest
behaviour, idle-world eviction versus an in-flight watch, and the
unknown-world / duplicate-create error paths.
"""

from __future__ import annotations

import asyncio

import pytest

from repro import CHA, ClusterWorld, ExperimentSpec, WorkloadSpec
from repro.errors import ServiceError
from repro.service import (
    ConsensusService,
    ServiceConfig,
    spec_hash,
)

pytestmark = pytest.mark.fast


def _spec(n: int = 4, instances: int = 5) -> ExperimentSpec:
    return ExperimentSpec(
        protocol=CHA(),
        world=ClusterWorld(n=n),
        workload=WorkloadSpec(instances=instances),
        keep_trace=False,
    )


class _FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def _service(worlds: int = 2, *, clock=None, **config) -> ConsensusService:
    return ConsensusService(
        _spec(), ServiceConfig(worlds=worlds, **config), clock=clock)


# ----------------------------------------------------------------------
# Registry identity
# ----------------------------------------------------------------------

def test_precreated_worlds_are_pinned_and_share_the_template_hash():
    service = _service(3)
    assert service.registry.names() == ["w1", "w2", "w3"]
    rows = service.registry.describe()
    assert all(row["pinned"] for row in rows)
    assert len({row["spec_hash"] for row in rows}) == 1
    assert rows[0]["spec_hash"] == spec_hash(_spec())


def test_anonymous_create_is_keyed_by_spec_hash():
    registry = _service(1).registry
    entry = registry.create(spec=_spec(n=6))
    assert entry.name == f"w-{spec_hash(_spec(n=6))[:12]}"
    with pytest.raises(ServiceError, match="attach_world to it instead"):
        registry.create(spec=_spec(n=6))
    # A different spec is a different identity — no clash.
    other = registry.create(spec=_spec(n=7))
    assert other.name != entry.name


def test_duplicate_named_create_and_unknown_world_errors():
    registry = _service(1).registry
    registry.create("mine")
    with pytest.raises(ServiceError, match="'mine' already exists"):
        registry.create("mine")
    with pytest.raises(ServiceError, match="unknown world 'nope'"):
        registry.get("nope")
    with pytest.raises(ServiceError, match="invalid world name"):
        registry.create("no spaces allowed")


def test_world_limit_is_enforced():
    service = ConsensusService(
        _spec(), ServiceConfig(worlds=2, max_worlds=3))
    service.registry.create("third")
    with pytest.raises(ServiceError, match="world limit reached"):
        service.registry.create("fourth")


def test_each_world_runs_a_private_spec_copy():
    """Worlds must not share mutable spec components (sweep idiom)."""
    service = _service(2)
    d1 = service.registry.get("w1").driver
    d2 = service.registry.get("w2").driver
    assert d1.spec is not d2.spec
    assert d1.spec.environment is not d2.spec.environment


# ----------------------------------------------------------------------
# Sessions across worlds
# ----------------------------------------------------------------------

def test_sessions_bind_to_named_worlds_and_streams_stay_separate():
    service = _service(2)
    a = service.connect(world="w1")
    b = service.connect(world="w2")
    assert a.world == "w1" and b.world == "w2"
    welcome_a = a.drain()[0]
    welcome_b = b.drain()[0]
    assert welcome_a["world"] == "w1" and welcome_b["world"] == "w2"
    a.propose("only-in-w1")
    service.registry.get("w1").driver.tick()  # w1 decides instance 1
    decisions_a = [e for e in a.drain() if e["type"] == "decision"]
    decisions_b = [e for e in b.drain() if e["type"] == "decision"]
    assert decisions_a and decisions_a[0]["world"] == "w1"
    assert decisions_a[0]["value"] == "only-in-w1"
    assert decisions_b == []  # w2 never ticked; nothing leaked across


def test_unknown_world_at_connect_is_rejected_before_any_state():
    service = _service(1)
    with pytest.raises(ServiceError, match="unknown world 'w9'"):
        service.connect(world="w9")
    assert service.sessions.active == 0
    assert service.registry.get("w1").sessions == 0


def test_attach_world_rebinds_and_counts_sessions():
    service = _service(2)
    client = service.connect(world="w1")
    client.drain()
    assert service.registry.get("w1").sessions == 1
    client.attach_world("w2", request_id="hop")
    attached = client.drain()
    assert attached[-1]["type"] == "world-attached"
    assert attached[-1]["world"] == "w2"
    assert attached[-1]["id"] == "hop"
    assert client.world == "w2"
    assert service.registry.get("w1").sessions == 0
    assert service.registry.get("w2").sessions == 1
    # seq continues across the re-bind: no stream reset.
    assert attached[-1]["seq"] > 0
    client.attach_world("missing")
    assert client.drain()[-1]["type"] == "error"
    assert client.world == "w2"  # failed attach leaves the binding alone


def test_worlds_listing_reflects_live_state():
    service = _service(2)
    client = service.connect(world="w2")
    client.drain()
    client.worlds()
    listing = client.drain()[-1]
    assert listing["type"] == "worlds"
    rows = {row["world"]: row for row in listing["worlds"]}
    assert rows["w1"]["sessions"] == 0
    assert rows["w2"]["sessions"] == 1
    assert rows["w2"]["pinned"] is True


def test_create_world_op_and_lazy_clock_start():
    async def scenario():
        service = _service(1, tick_interval=0.0)
        client = service.connect(world="w1")
        client.drain()
        service.start_world()
        client.create_world(world="fresh", nodes=3, instances=2,
                            request_id="c1")
        created = client.drain()[-1]
        assert created["type"] == "world-created"
        assert created["world"] == "fresh"
        assert created["nodes"] == 3
        assert created["instances"] == 2
        assert created["id"] == "c1"
        # Born after the clock release: the new world ticks by itself.
        client.attach_world("fresh")
        results = await service.run_worlds()
        assert set(results) == {"w1", "fresh"}
        await service.shutdown()
    asyncio.run(scenario())


def test_duplicate_create_surfaces_as_error_event_not_exception():
    service = _service(1)
    client = service.connect()
    client.drain()
    client.create_world(world="w1", request_id="dup")
    error = client.drain()[-1]
    assert error["type"] == "error"
    assert "already exists" in error["reason"]
    assert error["id"] == "dup"


# ----------------------------------------------------------------------
# Per-world queue bounds
# ----------------------------------------------------------------------

def test_queue_bounds_are_per_world_sessions_drop_independently():
    """A slow consumer on w1 drops oldest; a reader on w2 loses nothing
    — and neither world's clock stalls."""
    service = _service(2, queue_limit=3)
    slow = service.connect(world="w1")   # never reads
    fast = service.connect(world="w2")
    fast.drain()
    fast_events = []
    for _ in range(6):
        service.tick_all()
        fast_events.extend(fast.drain())  # a consumer that keeps up
    assert service.registry.get("w1").driver.complete
    assert service.registry.get("w2").driver.complete
    assert slow.dropped > 0
    assert fast.dropped == 0
    seqs = [e["seq"] for e in fast_events]
    assert seqs == list(range(1, len(fast_events) + 1))  # gapless
    slow_events = slow.drain()
    assert len(slow_events) == 3  # clamped at the queue bound
    assert slow_events[-1]["type"] == "world-complete"


# ----------------------------------------------------------------------
# Idle eviction
# ----------------------------------------------------------------------

def test_idle_world_evicts_after_grace_but_pinned_survives():
    clock = _FakeClock()
    service = _service(1, clock=clock, idle_world_grace_s=10.0)
    service.registry.create("scratch")
    clock.now = 5.0
    assert service.reap() == []  # inside the grace window
    clock.now = 11.0
    assert service.reap() == ["scratch"]
    assert "scratch" not in service.registry
    clock.now = 1000.0
    assert service.reap() == []  # pinned w1 never evicts
    assert "w1" in service.registry


def test_attached_session_protects_a_world_from_eviction():
    """An in-flight watch keeps its world alive: watches belong to
    attached sessions, and attached sessions zero out idleness."""
    clock = _FakeClock()
    service = _service(1, clock=clock, idle_world_grace_s=10.0)
    service.registry.create("watched")
    watcher = service.connect(world="watched")
    watcher.drain()
    watcher.watch_instance(3)
    clock.now = 1000.0
    assert service.reap() == []  # session attached → not idle
    # The watcher leaves; idleness starts *now*, not at creation.
    watcher.close()
    clock.now = 1005.0
    assert service.reap() == []
    clock.now = 1011.0
    assert service.reap() == ["watched"]


def test_eviction_stops_the_world_clock_task():
    async def scenario():
        clock = _FakeClock()
        service = _service(
            1, clock=clock, idle_world_grace_s=5.0, tick_interval=5.0)
        service.registry.create("doomed")
        service.start_world()
        await asyncio.sleep(0)  # let the tasks spin up
        task = service._world_tasks["doomed"]
        clock.now = 6.0
        assert service.reap() == ["doomed"]
        await asyncio.sleep(0)
        assert task.cancelled() or task.done()
        await service.shutdown()
    asyncio.run(scenario())


def test_recreating_an_evicted_world_starts_from_round_zero():
    clock = _FakeClock()
    service = _service(1, clock=clock, idle_world_grace_s=1.0)
    service.registry.create("phoenix")
    service.registry.get("phoenix").driver.tick()
    assert service.registry.get("phoenix").driver.current_round > 0
    clock.now = 2.0
    assert service.reap() == ["phoenix"]
    reborn = service.registry.create("phoenix")
    assert reborn.driver.current_round == 0
