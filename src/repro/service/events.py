"""The service wire schema: newline-delimited JSON, both directions.

Requests travel client → service as one JSON object per line carrying an
``op`` field; events travel service → client as one JSON object per line
carrying a ``type`` field and a per-session ``seq`` numbered at enqueue
time (so a gap in ``seq`` is the documented signal that the slow-consumer
drop policy fired).  Encoding is canonical — sorted keys, compact
separators — so byte-level comparisons of event streams are meaningful
in tests.

The schema is **declarative**: every request op and event type is an
entry in :data:`OPS` / :data:`EVENTS` carrying its field table, and both
the validators and the machine-readable :func:`catalog` (what
``python -m repro.service --describe`` emits, and what the doc-drift
test pins ``docs/WIRE_PROTOCOL.md`` against) are derived from those
tables — the wire reference cannot drift from the wire implementation.

Validation happens here, once, for every transport: the TCP server calls
:func:`parse_request` on raw lines, the in-process client calls
:func:`validate_request` on dicts, and both reject malformed input with
:class:`WireError` before it reaches the session layer.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Callable

from ..errors import ReproError
from .registry import WORLD_NAME_RE

#: Wire-format version, echoed in every ``welcome`` event.  2 = the
#: multi-world schema (world-scoped sessions, read-model ops).
WIRE_SCHEMA = 2

#: Hard per-line ceiling; a client shipping more is torn down, not parsed.
MAX_LINE_BYTES = 64 * 1024


class WireError(ReproError):
    """A request line failed JSON decoding or schema validation."""


# ----------------------------------------------------------------------
# The declarative schema
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class FieldSpec:
    """One documented field of a request op or an event type."""

    name: str
    #: Wire type: ``str`` / ``int`` / and, for events, ``float`` /
    #: ``bool`` / ``object`` / ``array`` / a ``X|null`` union.
    kind: str
    required: bool
    doc: str
    #: Extra constraint beyond the type check; raises :class:`WireError`.
    check: Callable[[Any], None] | None = None


@dataclass(frozen=True)
class OpSpec:
    """One request op: its fields and the event types it elicits."""

    doc: str
    fields: tuple[FieldSpec, ...]
    events: tuple[str, ...]


@dataclass(frozen=True)
class EventSpec:
    """One event type and its field table (``seq`` is the envelope)."""

    doc: str
    fields: tuple[FieldSpec, ...]


def _at_least(floor: int, message: str) -> Callable[[Any], None]:
    def check(value: Any) -> None:
        if value < floor:
            raise WireError(message)
    return check


def _world_name(value: Any) -> None:
    if not WORLD_NAME_RE.match(value):
        raise WireError(
            f"invalid world name {value!r}: use 1-64 characters from "
            "[A-Za-z0-9._-], starting alphanumeric"
        )


_REQUEST_ID = FieldSpec(
    "id", "str", False,
    "client-chosen correlation token, echoed on the response event")

_INSTANCE_GE1 = _at_least(
    1, "instance must be >= 1 (instances are 1-based; omit it to target "
       "the next open one)")


#: Every request op the service understands, in documentation order.
OPS: dict[str, OpSpec] = {
    "hello": OpSpec(
        doc="Connection greeting: opens a session bound to one named "
            "world.  Must be the first request on a TCP connection; the "
            "response is a `welcome` event carrying a catch-up snapshot.",
        fields=(
            FieldSpec("client", "str", False,
                      "free-form client label, for operator logs"),
            FieldSpec("world", "str", False,
                      "world to bind to (default: the service's default "
                      "world, w1)", check=_world_name),
        ),
        events=("welcome", "error"),
    ),
    "propose": OpSpec(
        doc="Submit one value into an upcoming consensus instance of the "
            "session's world.  Acked with the instance it landed in; "
            "rejected (error) once that instance has frozen.",
        fields=(
            FieldSpec("value", "str", True, "the proposed value"),
            FieldSpec("instance", "int", False,
                      "target instance (default: the next instance the "
                      "world has not yet begun)", check=_INSTANCE_GE1),
            FieldSpec("node", "int", False,
                      "propose on behalf of one node only (default: a "
                      "wildcard slot every unassigned node reads)",
                      check=_at_least(
                          0, "node must be a non-negative node id")),
            _REQUEST_ID,
        ),
        events=("ack", "error"),
    ),
    "create_world": OpSpec(
        doc="Lazily create a new live world from the service template.  "
            "Without `world` the new world is keyed by its spec hash, so "
            "re-creating an identical spec is a duplicate-create error "
            "naming the existing world.",
        fields=(
            FieldSpec("world", "str", False,
                      "name for the new world (default: derived from the "
                      "spec hash)", check=_world_name),
            FieldSpec("nodes", "int", False,
                      "override the template's cluster size",
                      check=_at_least(1, "nodes must be >= 1")),
            FieldSpec("instances", "int", False,
                      "override the template's instance budget",
                      check=_at_least(1, "instances must be >= 1")),
            _REQUEST_ID,
        ),
        events=("world-created", "error"),
    ),
    "attach_world": OpSpec(
        doc="Re-bind this session to another named world.  The session's "
            "event stream switches to the new world's bus (same queue, "
            "seq continues); instance watches are cleared (instance "
            "numbers are world-local), the value-prefix filter persists.",
        fields=(
            FieldSpec("world", "str", True, "world to attach to",
                      check=_world_name),
            _REQUEST_ID,
        ),
        events=("world-attached", "error"),
    ),
    "worlds": OpSpec(
        doc="List every live world: name, spec hash, round, session "
            "count, completion.",
        fields=(_REQUEST_ID,),
        events=("worlds",),
    ),
    "watch_instance": OpSpec(
        doc="Read model: stream every state transition of one consensus "
            "instance of the session's world.  The `watching` ack "
            "carries the instance's current state; from then on the "
            "session receives `instance-state` events for it "
            "(pending -> running -> decided).",
        fields=(
            FieldSpec("instance", "int", True, "instance to watch",
                      check=_INSTANCE_GE1),
            _REQUEST_ID,
        ),
        events=("watching", "error"),
    ),
    "unwatch_instance": OpSpec(
        doc="Stop streaming state transitions for one watched instance.",
        fields=(
            FieldSpec("instance", "int", True, "instance to stop watching",
                      check=_INSTANCE_GE1),
            _REQUEST_ID,
        ),
        events=("unwatched",),
    ),
    "subscribe_prefix": OpSpec(
        doc="Read model: narrow this session's `decision` feed to "
            "instances whose decided value starts with `prefix`.  An "
            "empty prefix clears the filter (all decisions again, "
            "including all-bottom ones, whose value is null).",
        fields=(
            FieldSpec("prefix", "str", True,
                      "value prefix to match; \"\" clears the filter"),
            _REQUEST_ID,
        ),
        events=("subscribed",),
    ),
    "ping": OpSpec(
        doc="Liveness probe; answered with the world's current round.",
        fields=(),
        events=("pong",),
    ),
    "stats": OpSpec(
        doc="This session's counters and filters, plus its world's clock.",
        fields=(),
        events=("stats",),
    ),
    "bye": OpSpec(
        doc="Graceful detach: the service enqueues a farewell `bye`, "
            "flushes the stream through it, and closes the session.",
        fields=(),
        events=("bye",),
    ),
}


_SNAPSHOT_FIELDS = (
    FieldSpec("world", "str", True, "the world this session is bound to"),
    FieldSpec("spec_hash", "str", True,
              "sha256 fingerprint of the world's experiment spec"),
    FieldSpec("round", "int", True, "the world's current round"),
    FieldSpec("nodes", "int", True, "nodes in the world"),
    FieldSpec("next_instance", "int", True,
              "lowest instance still accepting proposals"),
    FieldSpec("decided_instances", "int", True,
              "instances decided so far"),
    FieldSpec("recent_decisions", "array", True,
              "ring buffer of the most recent decision events "
              "(catch-up instead of replay)"),
    FieldSpec("complete", "bool", True, "has the world's workload run out"),
)

_OPTIONAL_ID = FieldSpec(
    "id", "str", False, "echo of the request's correlation token")

_STATE_FIELDS = (
    FieldSpec("state", "str", True,
              "instance lifecycle state: pending | running | decided"),
    FieldSpec("value", "str|null", False,
              "decided value (present once state is decided; null when "
              "every node decided bottom)"),
    FieldSpec("agreement", "str", False,
              "live agreement verdict (present once state is decided)"),
)


#: Every event type the service emits, in documentation order.  ``seq``
#: (the per-session sequence stamp) is the envelope, present on every
#: event, and therefore not repeated in each table.
EVENTS: dict[str, EventSpec] = {
    "welcome": EventSpec(
        doc="First event of every session: the wire-schema version, the "
            "session id, and a catch-up snapshot of the bound world.",
        fields=(
            FieldSpec("schema", "int", True, "wire-format version"),
            FieldSpec("session", "str", True, "server-assigned session id"),
        ) + _SNAPSHOT_FIELDS,
    ),
    "ack": EventSpec(
        doc="A proposal was accepted into the ledger.",
        fields=(
            FieldSpec("instance", "int", True,
                      "the instance the proposal landed in"),
            _OPTIONAL_ID,
        ),
    ),
    "error": EventSpec(
        doc="A request failed (or a line failed validation).  Pre-session "
            "errors are written with seq -1.",
        fields=(
            FieldSpec("reason", "str", True, "human-readable failure"),
            _OPTIONAL_ID,
        ),
    ),
    "decision": EventSpec(
        doc="One consensus instance of the session's world decided.  "
            "Subject to the session's value-prefix filter.",
        fields=(
            FieldSpec("world", "str", True, "the deciding world"),
            FieldSpec("instance", "int", True, "the decided instance"),
            FieldSpec("round", "int", True,
                      "world round at which the decision was harvested"),
            FieldSpec("value", "str|null", True,
                      "the decided value (null when every node decided "
                      "bottom)"),
            FieldSpec("decided", "int", True,
                      "nodes that decided a value"),
            FieldSpec("bottom", "int", True, "nodes that decided bottom"),
            FieldSpec("agreement", "str", True,
                      "live agreement verdict: \"ok\" or \"violated: ...\""),
        ),
    ),
    "instance-state": EventSpec(
        doc="Read-model stream: one watched instance changed state.  "
            "Delivered only to sessions watching that instance.",
        fields=(
            FieldSpec("world", "str", True, "the instance's world"),
            FieldSpec("instance", "int", True, "the instance"),
            FieldSpec("round", "int", True,
                      "world round of the transition"),
        ) + _STATE_FIELDS[:1] + _STATE_FIELDS[1:],
    ),
    "watching": EventSpec(
        doc="Ack for `watch_instance`, carrying the instance's *current* "
            "state so the watcher has a starting point.",
        fields=(
            FieldSpec("world", "str", True, "the instance's world"),
            FieldSpec("instance", "int", True, "the watched instance"),
        ) + _STATE_FIELDS + (_OPTIONAL_ID,),
    ),
    "unwatched": EventSpec(
        doc="Ack for `unwatch_instance`.",
        fields=(
            FieldSpec("instance", "int", True,
                      "the no-longer-watched instance"),
            _OPTIONAL_ID,
        ),
    ),
    "subscribed": EventSpec(
        doc="Ack for `subscribe_prefix`, echoing the active filter.",
        fields=(
            FieldSpec("prefix", "str|null", True,
                      "the active value-prefix filter (null = none)"),
            _OPTIONAL_ID,
        ),
    ),
    "world-created": EventSpec(
        doc="Ack for `create_world`.",
        fields=(
            FieldSpec("world", "str", True, "the new world's name/id"),
            FieldSpec("spec_hash", "str", True,
                      "sha256 fingerprint of the new world's spec"),
            FieldSpec("nodes", "int", True, "nodes in the new world"),
            FieldSpec("instances", "int|null", True,
                      "the new world's instance budget (null for "
                      "round-budget workloads)"),
            _OPTIONAL_ID,
        ),
    ),
    "world-attached": EventSpec(
        doc="Ack for `attach_world`: the new world's catch-up snapshot "
            "(same shape as the snapshot part of `welcome`).",
        fields=_SNAPSHOT_FIELDS + (_OPTIONAL_ID,),
    ),
    "worlds": EventSpec(
        doc="Ack for `worlds`: one row per live world.",
        fields=(
            FieldSpec("worlds", "array", True,
                      "rows of {world, spec_hash, round, "
                      "decided_instances, sessions, complete, pinned}"),
            _OPTIONAL_ID,
        ),
    ),
    "pong": EventSpec(
        doc="Ack for `ping`.",
        fields=(
            FieldSpec("round", "int", True,
                      "the session's world's current round"),
        ),
    ),
    "stats": EventSpec(
        doc="Ack for `stats`.",
        fields=(
            FieldSpec("session", "str", True, "session id"),
            FieldSpec("world", "str", True, "bound world"),
            FieldSpec("round", "int", True, "world's current round"),
            FieldSpec("next_instance", "int", True,
                      "lowest instance still accepting proposals"),
            FieldSpec("proposals_submitted", "int", True,
                      "proposals this session submitted"),
            FieldSpec("proposals_accepted", "int", True,
                      "proposals the ledger accepted"),
            FieldSpec("events_delivered", "int", True,
                      "events this session consumed"),
            FieldSpec("events_dropped", "int", True,
                      "events evicted by the slow-consumer policy"),
            FieldSpec("events_pending", "int", True,
                      "events queued, not yet read"),
            FieldSpec("watched_instances", "int", True,
                      "instances this session is watching"),
            FieldSpec("value_prefix", "str|null", True,
                      "active decision value-prefix filter (null = none)"),
        ),
    ),
    "bye": EventSpec(
        doc="Farewell: the last event of a gracefully closed session.",
        fields=(),
    ),
    "world-complete": EventSpec(
        doc="The session's world exhausted its workload; final invariant "
            "verdicts attached.  Broadcast to every session of that "
            "world.",
        fields=(
            FieldSpec("world", "str", True, "the completed world"),
            FieldSpec("round", "int", True, "final round"),
            FieldSpec("instances", "int", True, "instances harvested"),
            FieldSpec("decisions", "int", True,
                      "decision events published"),
            FieldSpec("invariants", "object", True,
                      "final invariant verdicts"),
        ),
    ),
    "world-failed": EventSpec(
        doc="The session's world raised while stepping and stopped; its "
            "sibling worlds run on.  Broadcast to every session of that "
            "world; the traceback goes to the `repro.service.driver` "
            "logger, and `python -m repro.service` exits 1.",
        fields=(FieldSpec("world", "str", True, "the failed world"),
                FieldSpec("round", "int", True, "round reached"),
                FieldSpec("error", "str", True, "the exception raised")),
    ),
    "shutdown": EventSpec(
        doc="The service is stopping; the stream ends after this event.",
        fields=(
            FieldSpec("reason", "str", True, "operator-supplied reason"),
        ),
    ),
}


def catalog() -> dict:
    """The machine-readable op/event catalog.

    This is what ``python -m repro.service --describe`` emits and what
    the doc-drift test compares ``docs/WIRE_PROTOCOL.md`` against; both
    are derived from :data:`OPS` / :data:`EVENTS`, the same tables the
    validators run on.
    """
    def rows(fields: tuple[FieldSpec, ...]) -> list[dict]:
        return [{"name": f.name, "type": f.kind, "required": f.required,
                 "doc": f.doc} for f in fields]

    return {
        "schema": WIRE_SCHEMA,
        "max_line_bytes": MAX_LINE_BYTES,
        "envelope": {
            "request": "one JSON object per line with an 'op' field",
            "event": "one JSON object per line with a 'type' field and a "
                     "per-session 'seq' numbered at enqueue (a seq gap "
                     "means the drop-oldest policy fired)",
        },
        "ops": {name: {"doc": spec.doc, "fields": rows(spec.fields),
                       "events": list(spec.events)}
                for name, spec in OPS.items()},
        "events": {name: {"doc": spec.doc, "fields": rows(spec.fields)}
                   for name, spec in EVENTS.items()},
    }


# ----------------------------------------------------------------------
# Requests (client -> service)
# ----------------------------------------------------------------------

_WIRE_KINDS: dict[str, type] = {"str": str, "int": int}


def _require(obj: dict, spec: FieldSpec) -> Any:
    value = obj.get(spec.name)
    if value is None:
        if not spec.required:
            return None
        raise WireError(
            f"{obj['op']!r} request needs a {spec.name!r} field")
    kind = _WIRE_KINDS[spec.kind]
    # bool is an int subclass; an instance check alone would let
    # ``"instance": true`` through.
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise WireError(
            f"{obj['op']!r} request field {spec.name!r} must be "
            f"{kind.__name__}, got {type(value).__name__}"
        )
    if spec.check is not None:
        spec.check(value)
    return value


def validate_request(obj: Any) -> dict:
    """Validate an already-decoded request object; returns it."""
    if not isinstance(obj, dict):
        raise WireError("request must be a JSON object")
    op = obj.get("op")
    if not isinstance(op, str) or op not in OPS:
        raise WireError(
            f"unknown op {op!r}; known ops: {sorted(OPS)}"
        )
    for field_spec in OPS[op].fields:
        _require(obj, field_spec)
    return obj


def parse_request(line: bytes | str) -> dict:
    """Decode and validate one request line."""
    if len(line) > MAX_LINE_BYTES:
        raise WireError(
            f"request line exceeds {MAX_LINE_BYTES} bytes"
        )
    try:
        obj = json.loads(line)
    except (ValueError, UnicodeDecodeError) as exc:
        raise WireError(f"request is not valid JSON: {exc}") from None
    except RecursionError:
        # Nesting deep enough to exhaust the decoder's stack fits in a
        # line well under the ceiling (50 000 ``[``).
        raise WireError("request nests too deeply") from None
    return validate_request(obj)


# ----------------------------------------------------------------------
# Events (service -> client)
# ----------------------------------------------------------------------

def encode_event(event: dict) -> bytes:
    """Canonical NDJSON encoding of one event."""
    return (json.dumps(event, sort_keys=True,
                       separators=(",", ":")) + "\n").encode("utf-8")


def decode_event(line: bytes | str) -> dict:
    obj = json.loads(line)
    if not isinstance(obj, dict) or not isinstance(obj.get("type"), str):
        raise WireError("event must be a JSON object with a 'type' field")
    return obj


def _with_id(event: dict, request_id: str | None) -> dict:
    if request_id is not None:
        event["id"] = request_id
    return event


def welcome_event(*, session: str, snapshot: dict) -> dict:
    return {"type": "welcome", "schema": WIRE_SCHEMA, "session": session,
            **snapshot}


def ack_event(*, instance: int, request_id: str | None = None) -> dict:
    return _with_id({"type": "ack", "instance": instance}, request_id)


def error_event(reason: str, *, request_id: str | None = None) -> dict:
    return _with_id({"type": "error", "reason": reason}, request_id)


def pong_event(*, round_: int) -> dict:
    return {"type": "pong", "round": round_}


def stats_event(stats: dict) -> dict:
    return {"type": "stats", **stats}


def bye_event() -> dict:
    return {"type": "bye"}


def shutdown_event(reason: str) -> dict:
    return {"type": "shutdown", "reason": reason}


def world_created_event(*, world: str, spec_hash: str, nodes: int,
                        instances: int | None,
                        request_id: str | None = None) -> dict:
    return _with_id({"type": "world-created", "world": world,
                     "spec_hash": spec_hash, "nodes": nodes,
                     "instances": instances}, request_id)


def world_attached_event(*, snapshot: dict,
                         request_id: str | None = None) -> dict:
    return _with_id({"type": "world-attached", **snapshot}, request_id)


def worlds_event(rows: list[dict], *, request_id: str | None = None) -> dict:
    return _with_id({"type": "worlds", "worlds": rows}, request_id)


def watching_event(*, world: str, state: dict,
                   request_id: str | None = None) -> dict:
    return _with_id({"type": "watching", "world": world, **state},
                    request_id)


def unwatched_event(*, instance: int,
                    request_id: str | None = None) -> dict:
    return _with_id({"type": "unwatched", "instance": instance}, request_id)


def subscribed_event(*, prefix: str | None,
                     request_id: str | None = None) -> dict:
    return _with_id({"type": "subscribed", "prefix": prefix}, request_id)
