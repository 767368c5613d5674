"""Virtual-infrastructure emulation (Section 4 of the paper)."""

from .client import ClientProgram, ClientRuntime, ScriptedClient, SilentClient
from .device import JoinState, VIDevice
from .engine import PhaseTable, VIRoundEngine
from .payloads import AlivePing, ClientMsg, JoinAck, JoinRequest, VNMsg
from .phases import PHASE_COUNT, Phase, PhaseClock, PhasePosition
from .program import (
    CounterProgram,
    EchoProgram,
    MailboxProgram,
    SilentProgram,
    VirtualObservation,
    VNProgram,
)
from .replica import ReplicaRuntime, observation_from_value
from .schedule import (
    Schedule,
    SiteIndex,
    VNSite,
    build_schedule,
    conflict_graph,
    verify_schedule,
)
from .world import VIWorld, VNRoundOutcome

__all__ = [
    "AlivePing",
    "ClientMsg",
    "ClientProgram",
    "ClientRuntime",
    "CounterProgram",
    "EchoProgram",
    "JoinAck",
    "JoinRequest",
    "JoinState",
    "MailboxProgram",
    "PHASE_COUNT",
    "Phase",
    "PhaseClock",
    "PhasePosition",
    "PhaseTable",
    "ReplicaRuntime",
    "VIRoundEngine",
    "Schedule",
    "ScriptedClient",
    "SilentClient",
    "SilentProgram",
    "SiteIndex",
    "VIDevice",
    "VIWorld",
    "VNMsg",
    "VNProgram",
    "VNRoundOutcome",
    "VNSite",
    "VirtualObservation",
    "build_schedule",
    "conflict_graph",
    "observation_from_value",
    "verify_schedule",
]
