"""The consensus service: many live worlds, many sessions, two transports.

:class:`ConsensusService` composes a :class:`~.registry.WorldRegistry`
of :class:`~.driver.WorldDriver`\\ s with a
:class:`~.session.SessionManager` and exposes them two ways:

* **in-process** — :meth:`ConsensusService.connect` returns an
  :class:`InProcessClient` sharing the event loop: the transport the
  tests use, with zero serialization overhead but the exact same
  session/queue/backpressure machinery as TCP.
* **TCP** — :meth:`ConsensusService.serve_tcp` speaks the NDJSON wire
  protocol of :mod:`~.events` over asyncio streams.  Each connection
  greets with ``hello`` (opening a session bound to one named world),
  then interleaves request lines with a pump task that writes the
  session's event stream.

The service pre-creates ``config.worlds`` **pinned** worlds from the
template spec (``w1`` … ``wN``; ``hello`` without a world name lands in
``w1``); further worlds appear lazily through the ``create_world`` op
and retire through the idle reaper once they have sat session-less for
``idle_world_grace_s``.  Every world ticks on its own clock task, all
on one loop.

Worlds start **paused**; :meth:`start_world` (or awaiting
:meth:`run_world` / :meth:`run_worlds`) releases the clocks — and from
then on, lazily created worlds start ticking at birth.  Sessions
attached before the release observe their world from round zero — the
determinism guarantee the differential suite leans on.
:meth:`shutdown` is the graceful path: stop the clocks, broadcast
``shutdown`` on every world's bus, give connection pumps a drain
window, then close everything.
"""

from __future__ import annotations

import asyncio
import contextlib
from dataclasses import dataclass
from typing import Any, Callable

from ..core.cha import ROUNDS_PER_INSTANCE
from ..errors import ServiceError
from ..experiment.result import ExperimentResult
from ..experiment.runner import Instrument
from ..experiment.spec import ExperimentSpec
from .driver import WorldDriver
from .events import (
    MAX_LINE_BYTES,
    WireError,
    encode_event,
    error_event,
    parse_request,
    shutdown_event,
    validate_request,
)
from .registry import WorldRegistry
from .session import Session, SessionManager


@dataclass(frozen=True)
class ServiceConfig:
    """Service-level knobs (the spec describes the world; this, the front end)."""

    host: str = "127.0.0.1"
    port: int = 0  #: 0 = ephemeral; read :attr:`ConsensusService.tcp_address`.
    tick_interval: float = 0.0  #: seconds between ticks; 0 = flat out.
    rounds_per_tick: int = ROUNDS_PER_INSTANCE
    queue_limit: int = 1024  #: per-session event queue bound.
    max_sessions: int = 10_000
    decision_log_limit: int = 256  #: decisions kept for catch-up snapshots.
    drain_timeout: float = 1.0  #: seconds shutdown waits for pumps to flush.
    worlds: int = 1  #: pinned worlds pre-created from the template (w1..wN).
    max_worlds: int = 64  #: hard cap, lazily created worlds included.
    idle_world_grace_s: float = 30.0  #: idle window before eviction.
    reaper_interval_s: float = 0.0  #: 0 = no background reaper task.


class ConsensusService:
    """Many served worlds.  Construct paused; start the clocks explicitly."""

    def __init__(self, spec: ExperimentSpec,
                 config: ServiceConfig = ServiceConfig(), *,
                 instrument: Instrument | None = None,
                 clock: Callable[[], float] | None = None) -> None:
        if config.worlds < 1:
            raise ServiceError("config.worlds must be >= 1")
        self.config = config
        self._instrument = instrument
        self.registry = WorldRegistry(
            spec, self._build_driver,
            max_worlds=config.max_worlds, clock=clock)
        self._world_tasks: dict[str, asyncio.Task] = {}
        self._clock_released = False
        for index in range(config.worlds):
            self.registry.create(f"w{index + 1}", pinned=True)
        self.sessions = SessionManager(
            self.registry,
            queue_limit=config.queue_limit,
            max_sessions=config.max_sessions,
        )
        self._reaper_task: asyncio.Task | None = None
        self._server: asyncio.AbstractServer | None = None
        self._conn_tasks: set[asyncio.Task] = set()

    def _build_driver(self, spec: ExperimentSpec, name: str) -> WorldDriver:
        driver = WorldDriver(
            spec,
            name=name,
            rounds_per_tick=self.config.rounds_per_tick,
            tick_interval=self.config.tick_interval,
            decision_log_limit=self.config.decision_log_limit,
            instrument=self._instrument,
        )
        if self._clock_released:
            # Worlds born after the release start ticking immediately.
            self._world_tasks[name] = asyncio.ensure_future(driver.run())
        return driver

    # -- introspection --------------------------------------------------

    @property
    def default_world(self) -> str:
        return "w1"

    @property
    def driver(self) -> WorldDriver:
        """The default world's driver (single-world compatibility view)."""
        return self.registry.get(self.default_world).driver

    # -- the world clocks ----------------------------------------------

    def start_world(self) -> asyncio.Task:
        """Release the clocks as background tasks (idempotent).

        Returns the default world's clock task (the single-world
        contract); every registered world gets its own task, and worlds
        created later start theirs at birth.
        """
        self._clock_released = True
        for entry in self.registry:
            if entry.name not in self._world_tasks:
                self._world_tasks[entry.name] = asyncio.ensure_future(
                    entry.driver.run())
        if (self._reaper_task is None
                and self.config.reaper_interval_s > 0):
            self._reaper_task = asyncio.ensure_future(self._reap_loop())
        return self._world_tasks[self.default_world]

    async def run_world(self) -> ExperimentResult:
        """Release the clocks and wait for the *default* world."""
        results = await self.run_worlds()
        if self.driver.failed is not None:
            raise ServiceError(f"world failed: {self.driver.failed['error']}")
        return results[self.default_world]

    async def run_worlds(self) -> dict[str, ExperimentResult]:
        """Release the clocks and wait for every live world to complete.

        Worlds created while waiting are waited on too.  Returns the
        completed results by world name (evicted worlds excluded, and
        failed ones: their driver's ``failed`` holds the event).
        """
        self.start_world()
        while True:
            pending = [task for name, task in self._world_tasks.items()
                       if name in self.registry and not task.done()]
            if not pending:
                break
            await asyncio.shield(asyncio.gather(*pending))
        return {entry.name: entry.driver.result
                for entry in self.registry if entry.driver.result is not None}

    def tick_all(self) -> None:
        """Advance every live world one tick (manual-clock tests)."""
        for entry in self.registry:
            entry.driver.tick()

    # -- idle-world eviction -------------------------------------------

    def reap(self) -> list[str]:
        """Evict idle unpinned worlds; stop their clocks.  Returns names."""
        evicted = self.registry.evict_idle(self.config.idle_world_grace_s)
        names = []
        for entry in evicted:
            task = self._world_tasks.pop(entry.name, None)
            if task is not None and not task.done():
                task.cancel()
            names.append(entry.name)
        return names

    async def _reap_loop(self) -> None:
        while True:
            await asyncio.sleep(self.config.reaper_interval_s)
            self.reap()

    # -- in-process transport ------------------------------------------

    def connect(self, *, client: str | None = None,
                world: str | None = None) -> "InProcessClient":
        return InProcessClient(
            self, self.sessions.open(client=client, world=world))

    # -- TCP transport -------------------------------------------------

    async def serve_tcp(self) -> asyncio.AbstractServer:
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port,
            limit=MAX_LINE_BYTES)
        return self._server

    @property
    def tcp_address(self) -> tuple[str, int] | None:
        if self._server is None or not self._server.sockets:
            return None
        return self._server.sockets[0].getsockname()[:2]

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        self._conn_tasks.add(asyncio.current_task())
        session: Session | None = None
        pump: asyncio.Task | None = None
        graceful = overlong = False
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    # Over the reader's limit, the line ceiling: torn
                    # down, not parsed (docs/WIRE_PROTOCOL.md).
                    overlong = True
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                try:
                    request = parse_request(line)
                except WireError as exc:
                    event = error_event(str(exc))
                    if session is not None:
                        session.queue.put(event)
                    else:
                        writer.write(encode_event(dict(event, seq=-1)))
                        await writer.drain()
                    continue
                if request["op"] == "hello":
                    if session is not None:
                        session.queue.put(error_event(
                            "session already open; 'hello' is a "
                            "connection greeting"))
                        continue
                    try:
                        session = self.sessions.open(
                            client=request.get("client"),
                            world=request.get("world"))
                    except ServiceError as exc:
                        writer.write(encode_event(
                            dict(error_event(str(exc)), seq=-1)))
                        await writer.drain()
                        break
                    pump = asyncio.ensure_future(self._pump(session, writer))
                    continue
                if session is None:
                    writer.write(encode_event(dict(
                        error_event("say 'hello' first to open a session"),
                        seq=-1)))
                    await writer.drain()
                    continue
                if not session.handle(request):
                    # ``bye`` — the pump exits after flushing through
                    # the bye event it just enqueued.
                    graceful = True
                    break
        finally:
            if pump is not None:
                if graceful:
                    # Bounded window to flush through the farewell.
                    with contextlib.suppress(asyncio.TimeoutError,
                                             ConnectionError,
                                             asyncio.CancelledError):
                        await asyncio.wait_for(
                            pump, timeout=self.config.drain_timeout)
                pump.cancel()
                with contextlib.suppress(asyncio.CancelledError,
                                         ConnectionError):
                    await pump
            if overlong:
                writer.write(encode_event(dict(error_event(
                    f"request line exceeds {MAX_LINE_BYTES} bytes"), seq=-1)))
                with contextlib.suppress(ConnectionError):
                    await writer.drain()
            if session is not None:
                self.sessions.close(session)
            writer.close()
            with contextlib.suppress(ConnectionError):
                await writer.wait_closed()
            self._conn_tasks.discard(asyncio.current_task())

    async def _pump(self, session: Session, writer: asyncio.StreamWriter) -> None:
        """Write the session's event stream until it ends."""
        while True:
            event = await session.queue.get()
            writer.write(encode_event(event))
            await writer.drain()
            if event.get("type") in ("bye", "shutdown"):
                return

    # -- lifecycle -----------------------------------------------------

    async def shutdown(self, reason: str = "service shutting down") -> None:
        """Graceful stop: halt the clocks, notify, drain, close."""
        if self._reaper_task is not None and not self._reaper_task.done():
            self._reaper_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._reaper_task
        for task in self._world_tasks.values():
            if not task.done():
                task.cancel()
        for task in self._world_tasks.values():
            with contextlib.suppress(asyncio.CancelledError):
                await task
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for entry in self.registry:
            entry.driver.bus.publish(shutdown_event(reason))
        if self._conn_tasks:
            done, pending = await asyncio.wait(
                list(self._conn_tasks), timeout=self.config.drain_timeout)
            for task in pending:
                task.cancel()
            for task in pending:
                with contextlib.suppress(asyncio.CancelledError):
                    await task
        self.sessions.close_all()


class InProcessClient:
    """The zero-copy transport: same sessions, queues, and validation
    as TCP, minus the sockets.  Requests are dicts; events come back
    (seq-stamped) from :meth:`next_event`."""

    def __init__(self, service: ConsensusService, session: Session) -> None:
        self.service = service
        self.session = session

    # -- requests ------------------------------------------------------

    def request(self, request: dict) -> None:
        """Validate and dispatch one request dict."""
        if self.session.closed:
            raise ServiceError(f"session {self.session_id!r} is closed")
        if not self.session.handle(validate_request(dict(request))):
            self.close()

    def propose(self, value: str, *, instance: int | None = None,
                node: int | None = None, request_id: str | None = None) -> None:
        request: dict[str, Any] = {"op": "propose", "value": value}
        if instance is not None:
            request["instance"] = instance
        if node is not None:
            request["node"] = node
        if request_id is not None:
            request["id"] = request_id
        self.request(request)

    def ping(self) -> None:
        self.request({"op": "ping"})

    def stats(self) -> None:
        self.request({"op": "stats"})

    def create_world(self, *, world: str | None = None,
                     nodes: int | None = None,
                     instances: int | None = None,
                     request_id: str | None = None) -> None:
        request: dict[str, Any] = {"op": "create_world"}
        if world is not None:
            request["world"] = world
        if nodes is not None:
            request["nodes"] = nodes
        if instances is not None:
            request["instances"] = instances
        if request_id is not None:
            request["id"] = request_id
        self.request(request)

    def attach_world(self, world: str, *,
                     request_id: str | None = None) -> None:
        request: dict[str, Any] = {"op": "attach_world", "world": world}
        if request_id is not None:
            request["id"] = request_id
        self.request(request)

    def worlds(self) -> None:
        self.request({"op": "worlds"})

    def watch_instance(self, instance: int, *,
                       request_id: str | None = None) -> None:
        request: dict[str, Any] = {"op": "watch_instance",
                                   "instance": instance}
        if request_id is not None:
            request["id"] = request_id
        self.request(request)

    def unwatch_instance(self, instance: int, *,
                         request_id: str | None = None) -> None:
        request: dict[str, Any] = {"op": "unwatch_instance",
                                   "instance": instance}
        if request_id is not None:
            request["id"] = request_id
        self.request(request)

    def subscribe_prefix(self, prefix: str, *,
                         request_id: str | None = None) -> None:
        request: dict[str, Any] = {"op": "subscribe_prefix",
                                   "prefix": prefix}
        if request_id is not None:
            request["id"] = request_id
        self.request(request)

    def bye(self) -> None:
        self.request({"op": "bye"})

    # -- events --------------------------------------------------------

    async def next_event(self) -> dict:
        return await self.session.queue.get()

    def next_event_nowait(self) -> dict | None:
        return self.session.queue.get_nowait()

    def drain(self) -> list[dict]:
        """Pop everything currently queued (non-blocking)."""
        events = []
        while (event := self.session.queue.get_nowait()) is not None:
            events.append(event)
        return events

    # -- lifecycle -----------------------------------------------------

    @property
    def session_id(self) -> str:
        return self.session.session_id

    @property
    def world(self) -> str:
        return self.session.world

    @property
    def closed(self) -> bool:
        return self.session.closed

    @property
    def dropped(self) -> int:
        return self.session.queue.dropped

    def close(self) -> None:
        if not self.session.closed:
            self.service.sessions.close(self.session)
