"""The wire layer: request validation, canonical event encoding, the
TCP transport end-to-end, graceful shutdown, and the CLI."""

from __future__ import annotations

import asyncio
import json
import logging

import pytest

from repro import CHA, ClusterWorld, ExperimentSpec, WorkloadSpec
from repro.experiment import MetricsSpec
from repro.experiment.runner import ExperimentStepper
from repro.service import (
    MAX_LINE_BYTES,
    ConsensusService,
    ServiceConfig,
    WireError,
    decode_event,
    encode_event,
    parse_request,
    validate_request,
)
from repro.service import events
from repro.service.__main__ import main as service_main

pytestmark = pytest.mark.fast


# ----------------------------------------------------------------------
# Request validation
# ----------------------------------------------------------------------

@pytest.mark.parametrize("line,message", [
    (b"not json", "not valid JSON"),
    (b"[1, 2]", "must be a JSON object"),
    (b'{"op": "nope"}', "unknown op"),
    (b'{"value": "x"}', "unknown op"),
    (b'{"op": "propose"}', "needs a 'value' field"),
    (b'{"op": "propose", "value": 7}', "must be str"),
    (b'{"op": "propose", "value": "x", "instance": 0}', "must be >= 1"),
    (b'{"op": "propose", "value": "x", "instance": true}', "must be int"),
    (b'{"op": "propose", "value": "x", "node": -1}', "non-negative"),
    (b'{"op": "propose", "value": "x", "id": 9}', "must be str"),
    (b'{"op": "hello", "client": 5}', "must be str"),
    (b'{"op": "hello", "world": "no spaces"}', "invalid world name"),
    (b'{"op": "create_world", "world": "-bad"}', "invalid world name"),
    (b'{"op": "create_world", "nodes": 0}', "nodes must be >= 1"),
    (b'{"op": "create_world", "instances": true}', "must be int"),
    (b'{"op": "attach_world"}', "needs a 'world' field"),
    (b'{"op": "watch_instance"}', "needs an? 'instance' field"),
    (b'{"op": "watch_instance", "instance": 0}', "must be >= 1"),
    (b'{"op": "unwatch_instance", "instance": "x"}', "must be int"),
    (b'{"op": "subscribe_prefix"}', "needs a 'prefix' field"),
    (b'{"op": "subscribe_prefix", "prefix": 1}', "must be str"),
    (b"[" * 50_000, "nests too deeply"),
])
def test_parse_request_rejects_malformed(line, message):
    with pytest.raises(WireError, match=message):
        parse_request(line)


def test_parse_request_accepts_every_op():
    assert parse_request(b'{"op": "hello"}')["op"] == "hello"
    assert parse_request(b'{"op": "hello", "world": "w2"}')["world"] == "w2"
    assert parse_request('{"op": "ping"}')["op"] == "ping"
    assert parse_request(b'{"op": "stats"}')["op"] == "stats"
    assert parse_request(b'{"op": "bye"}')["op"] == "bye"
    assert parse_request(b'{"op": "worlds"}')["op"] == "worlds"
    assert parse_request(b'{"op": "create_world"}')["op"] == "create_world"
    assert parse_request(
        b'{"op": "create_world", "world": "lab.2", "nodes": 5, '
        b'"instances": 9}')["world"] == "lab.2"
    assert parse_request(
        b'{"op": "attach_world", "world": "w1"}')["world"] == "w1"
    assert parse_request(
        b'{"op": "watch_instance", "instance": 4}')["instance"] == 4
    assert parse_request(
        b'{"op": "unwatch_instance", "instance": 4}')["instance"] == 4
    assert parse_request(
        b'{"op": "subscribe_prefix", "prefix": ""}')["prefix"] == ""
    request = parse_request(
        b'{"op": "propose", "value": "v", "instance": 3, "node": 0, '
        b'"id": "r1"}')
    assert request["instance"] == 3 and request["node"] == 0
    # Nothing above misses an op the catalog documents.
    covered = {"hello", "ping", "stats", "bye", "worlds", "create_world",
               "attach_world", "watch_instance", "unwatch_instance",
               "subscribe_prefix", "propose"}
    assert covered == set(events.OPS)


def test_parse_request_enforces_line_ceiling():
    huge = json.dumps({"op": "propose", "value": "x" * MAX_LINE_BYTES})
    with pytest.raises(WireError, match="exceeds"):
        parse_request(huge.encode())


def test_validate_request_rejects_non_dict():
    with pytest.raises(WireError, match="JSON object"):
        validate_request(["op", "ping"])


def test_event_encoding_is_canonical_ndjson():
    event = {"type": "decision", "instance": 3, "value": "v"}
    encoded = encode_event(event)
    assert encoded.endswith(b"\n") and encoded.count(b"\n") == 1
    # Key order never leaks into the bytes.
    assert encode_event({"value": "v", "instance": 3, "type": "decision"}) \
        == encoded
    assert decode_event(encoded) == event
    with pytest.raises(WireError, match="'type'"):
        decode_event(b'{"no": "type"}')


# ----------------------------------------------------------------------
# TCP transport end-to-end
# ----------------------------------------------------------------------

def _spec(instances: int = 6) -> ExperimentSpec:
    return ExperimentSpec(
        protocol=CHA(), world=ClusterWorld(n=5),
        workload=WorkloadSpec(instances=instances),
        metrics=MetricsSpec(metrics=("rounds",), invariants=("agreement",)),
        keep_trace=False,
    )


class _TcpClient:
    """Minimal NDJSON test client."""

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter) -> None:
        self.reader, self.writer = reader, writer

    @classmethod
    async def open(cls, service: ConsensusService) -> "_TcpClient":
        host, port = service.tcp_address
        return cls(*await asyncio.open_connection(host, port))

    async def send(self, **request) -> None:
        self.writer.write((json.dumps(request) + "\n").encode())
        await self.writer.drain()

    async def recv(self) -> dict:
        line = await asyncio.wait_for(self.reader.readline(), timeout=5)
        assert line, "server closed the connection unexpectedly"
        return decode_event(line)

    async def recv_type(self, wanted: str) -> dict:
        while True:
            event = await self.recv()
            if event["type"] == wanted:
                return event

    async def close(self) -> None:
        self.writer.close()
        await self.writer.wait_closed()


def test_tcp_session_full_conversation():
    async def scenario():
        service = ConsensusService(_spec(), ServiceConfig())
        await service.serve_tcp()
        client = await _TcpClient.open(service)

        # Requests before hello are rejected without opening a session.
        await client.send(op="ping")
        event = await client.recv()
        assert event["type"] == "error" and "hello" in event["reason"]
        assert service.sessions.active == 0

        await client.send(op="hello", client="wire-test")
        welcome = await client.recv()
        assert welcome["type"] == "welcome" and welcome["round"] == 0
        assert service.sessions.active == 1

        # A second hello on the same connection is an error event, not a
        # second session.
        await client.send(op="hello")
        event = await client.recv()
        assert event["type"] == "error" and "already open" in event["reason"]
        assert service.sessions.active == 1

        # Malformed lines produce error events mid-session too.
        await client.send(op="propose")
        event = await client.recv()
        assert event["type"] == "error" and "value" in event["reason"]

        await client.send(op="propose", value="tcp-v", id="r1")
        ack = await client.recv()
        assert ack["type"] == "ack" and ack["id"] == "r1"

        service.start_world()
        decision = await client.recv_type("decision")
        assert decision["instance"] == ack["instance"]
        assert decision["value"] == "tcp-v"
        assert decision["agreement"] == "ok"

        await client.send(op="stats")
        stats = await client.recv_type("stats")
        assert stats["proposals_accepted"] == 1

        await client.send(op="bye")
        farewell = await client.recv_type("bye")
        assert farewell["type"] == "bye"
        await client.close()

        await service.run_world()
        await service.shutdown()
        assert service.sessions.active == 0

    asyncio.run(scenario())


def test_tcp_abrupt_disconnect_cleans_up():
    async def scenario():
        service = ConsensusService(_spec(), ServiceConfig())
        await service.serve_tcp()
        client = await _TcpClient.open(service)
        await client.send(op="hello")
        await client.recv_type("welcome")
        assert service.sessions.active == 1
        await client.close()  # no bye: the death of a client
        for _ in range(50):
            if service.sessions.active == 0:
                break
            await asyncio.sleep(0.01)
        assert service.sessions.active == 0
        await service.shutdown()

    asyncio.run(scenario())


def _asyncio_errors(caplog) -> list[str]:
    return [record.getMessage() for record in caplog.records
            if record.name == "asyncio" and record.levelno >= logging.ERROR]


def test_tcp_deeply_nested_request_is_an_error_event(caplog):
    caplog.set_level(logging.ERROR, logger="asyncio")

    async def scenario():
        service = ConsensusService(_spec(), ServiceConfig())
        await service.serve_tcp()
        client = await _TcpClient.open(service)
        await client.send(op="hello")
        await client.recv_type("welcome")
        # 50 000 ``[`` fit under the ceiling but exhaust the decoder.
        client.writer.write(b"[" * 50_000 + b"\n")
        await client.writer.drain()
        event = await client.recv()
        assert event["type"] == "error"
        assert event["reason"] == "request nests too deeply"
        assert event["seq"] == 1  # the session's own stream, still open
        await client.send(op="ping")
        assert (await client.recv())["type"] == "pong"
        assert service.sessions.active == 1
        await client.close()
        await service.shutdown()

    asyncio.run(scenario())
    assert _asyncio_errors(caplog) == []


def test_tcp_line_over_the_ceiling_is_an_error_then_a_clean_close(caplog):
    caplog.set_level(logging.ERROR, logger="asyncio")

    async def scenario():
        service = ConsensusService(_spec(), ServiceConfig())
        await service.serve_tcp()
        client = await _TcpClient.open(service)
        await client.send(op="hello")
        await client.recv_type("welcome")
        pad = "x" * (MAX_LINE_BYTES + 100)
        await client.send(op="ping", pad=pad)
        assert await client.recv() == {
            "type": "error", "seq": -1,
            "reason": f"request line exceeds {MAX_LINE_BYTES} bytes"}
        try:  # then the connection ends
            assert await client.reader.readline() == b""
        except ConnectionResetError:
            pass
        for _ in range(50):
            if service.sessions.active == 0:
                break
            await asyncio.sleep(0.01)
        assert service.sessions.active == 0
        await service.shutdown()

    asyncio.run(scenario())
    assert _asyncio_errors(caplog) == []


def test_tcp_shutdown_notifies_connected_sessions():
    async def scenario():
        service = ConsensusService(_spec(), ServiceConfig())
        await service.serve_tcp()
        client = await _TcpClient.open(service)
        await client.send(op="hello")
        await client.recv_type("welcome")
        await service.shutdown("maintenance window")
        event = await client.recv_type("shutdown")
        assert event["reason"] == "maintenance window"
        assert (await client.reader.readline()) == b""  # then EOF
        assert service.sessions.active == 0

    asyncio.run(scenario())


def test_tcp_session_limit_rejects_connection():
    async def scenario():
        service = ConsensusService(_spec(), ServiceConfig(max_sessions=1))
        await service.serve_tcp()
        first = await _TcpClient.open(service)
        await first.send(op="hello")
        await first.recv_type("welcome")
        second = await _TcpClient.open(service)
        await second.send(op="hello")
        event = await second.recv()
        assert event["type"] == "error" and "session limit" in event["reason"]
        assert (await second.reader.readline()) == b""  # connection closed
        await first.close()
        await service.shutdown()

    asyncio.run(scenario())


def test_tcp_multiworld_conversation():
    """World ops over the wire: named hello, create/attach/worlds, a
    watch riding along, an unknown world rejected pre-session."""
    async def scenario():
        service = ConsensusService(_spec(), ServiceConfig(worlds=2))
        await service.serve_tcp()

        # hello naming an unknown world is rejected before a session.
        stranger = await _TcpClient.open(service)
        await stranger.send(op="hello", world="w9")
        event = await stranger.recv()
        assert event["type"] == "error" and "unknown world" in event["reason"]
        assert (await stranger.reader.readline()) == b""
        assert service.sessions.active == 0

        client = await _TcpClient.open(service)
        await client.send(op="hello", world="w2")
        welcome = await client.recv()
        assert welcome["type"] == "welcome" and welcome["world"] == "w2"
        assert welcome["spec_hash"]

        await client.send(op="create_world", world="lab", nodes=4, id="c")
        created = await client.recv_type("world-created")
        assert created["world"] == "lab" and created["nodes"] == 4

        await client.send(op="worlds")
        listing = await client.recv_type("worlds")
        assert [row["world"] for row in listing["worlds"]] \
            == ["w1", "w2", "lab"]

        await client.send(op="attach_world", world="lab", id="hop")
        attached = await client.recv_type("world-attached")
        assert attached["world"] == "lab" and attached["id"] == "hop"

        await client.send(op="watch_instance", instance=1)
        watching = await client.recv_type("watching")
        assert watching["world"] == "lab"
        assert watching["state"] == "pending"

        await client.send(op="propose", value="lab-v", id="p")
        await client.recv_type("ack")
        service.start_world()
        state = await client.recv_type("instance-state")
        assert state["world"] == "lab" and state["instance"] == 1

        await client.send(op="bye")
        await client.recv_type("bye")
        await client.close()
        await service.run_worlds()
        await service.shutdown()

    asyncio.run(scenario())


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

def test_cli_describe_prints_config_and_catalog(capsys):
    assert service_main(["--describe", "--nodes", "9", "--instances", "42",
                         "--protocol", "two-phase-cha",
                         "--queue-limit", "7", "--worlds", "3"]) == 0
    described = json.loads(capsys.readouterr().out)
    config = described["config"]
    assert config["world"]["n"] == 9
    assert config["workload"]["instances"] == 42
    assert config["protocol"] == "two-phase-cha"
    assert config["service"]["queue_limit"] == 7
    assert config["service"]["worlds"] == 3
    # The catalog is derived from the live wire tables.
    catalog = described["catalog"]
    assert catalog == events.catalog()
    assert set(catalog["ops"]) == set(events.OPS)
    assert set(catalog["events"]) == set(events.EVENTS)


def test_cli_serves_a_world_to_completion(capsys):
    assert service_main(["--nodes", "4", "--instances", "3",
                         "--tick-interval", "0"]) == 0
    out = capsys.readouterr().out
    assert "serving 1 x 4-node CHA world(s)" in out
    assert "1 world(s) complete after 9 total rounds" in out


def test_cli_reports_a_failing_world_and_exits_nonzero(monkeypatch, capsys,
                                                       caplog):
    """A world whose tick raises ends alone; the CLI logs the traceback,
    names the failed world and exits 1, while its sibling completes."""
    step, first = ExperimentStepper.step, []

    def step_or_fail(self, ticks=1):
        first[:] = first or [self]  # the first world to tick fails
        if self is first[0] and self.simulator.current_round >= 3:
            raise RuntimeError("boom")
        return step(self, ticks)

    monkeypatch.setattr(ExperimentStepper, "step", step_or_fail)
    assert service_main(["--nodes", "4", "--instances", "3", "--worlds", "2",
                         "--tick-interval", "0"]) == 1
    out, err = capsys.readouterr()
    assert "1 world(s) complete after 9 total rounds" in out
    assert "world(s) failed: {'w1': 'RuntimeError: boom'}" in err
    [record] = [r for r in caplog.records if r.name == "repro.service.driver"]
    assert record.getMessage() == "world w1 failed at round 3"
    assert record.exc_info[0] is RuntimeError
