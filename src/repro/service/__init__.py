"""repro.service — consensus as a service over many live worlds.

The batch layer (:func:`repro.run`) answers "what does this world do?";
this package answers "what happens when many concurrent clients talk to
it *while it runs*?".  A :class:`ConsensusService` owns a
:class:`~.registry.WorldRegistry` of named worlds — each a
:class:`~repro.experiment.runner.ExperimentStepper` advanced on its own
asyncio clock (:class:`~.driver.WorldDriver`), all sharing one loop.
Clients open sessions bound to a named world, submit proposals into
upcoming instances, and stream per-instance ``decision`` events
carrying live agreement verdicts — over TCP (newline-delimited JSON,
:mod:`~.events`) or in-process (:class:`InProcessClient`, what the
tests use).  Worlds appear lazily (``create_world``), sessions move
between them (``attach_world``), and idle unpinned worlds retire after
a grace window.  Two read models
narrow a session's stream: ``watch_instance`` (every state transition
of one instance) and ``subscribe_prefix`` (decisions whose value
matches a prefix) — both groups the world's event bus indexes and fans
out to at publish time, so they never stall a world's clock.

Determinism is the design invariant: client traffic only lands
proposals in the :class:`~.driver.ProposalLedger` before each instance
freezes, so the same spec plus the same accepted proposal schedule
reproduces the batch run byte for byte — sessions attaching, detaching,
or lagging never perturb the world.  The differential suite pins this.

Backpressure is per-session: every session has a bounded event queue;
a slow consumer loses its *oldest* events (visible as a ``seq`` gap and
a drop counter) while the world clock never blocks.

Usage::

    python -m repro.service --nodes 24 --instances 200   # serve over TCP

    svc = ConsensusService(spec)
    client = svc.connect()
    client.propose("value-1")
    await svc.run_world()
"""

from .driver import EventBus, ProposalLedger, SessionQueue, WorldDriver
from .events import (
    MAX_LINE_BYTES,
    WIRE_SCHEMA,
    WireError,
    catalog,
    decode_event,
    encode_event,
    parse_request,
    validate_request,
)
from .registry import WorldEntry, WorldRegistry, spec_hash
from .server import ConsensusService, InProcessClient, ServiceConfig
from .session import Session, SessionManager

__all__ = [
    "ConsensusService",
    "EventBus",
    "InProcessClient",
    "MAX_LINE_BYTES",
    "ProposalLedger",
    "ServiceConfig",
    "Session",
    "SessionManager",
    "SessionQueue",
    "WIRE_SCHEMA",
    "WireError",
    "WorldDriver",
    "WorldEntry",
    "WorldRegistry",
    "catalog",
    "decode_event",
    "encode_event",
    "parse_request",
    "spec_hash",
    "validate_request",
]
