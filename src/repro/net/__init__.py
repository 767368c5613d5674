"""Radio-network substrate: the slotted collision-prone channel model."""

from .adversary import (
    Adversary,
    ComposedAdversary,
    NoAdversary,
    NoiseBurstAdversary,
    PartitionAdversary,
    RandomLossAdversary,
    ScriptedAdversary,
    TargetedDropAdversary,
    WindowAdversary,
)
from .channel import Channel, RadioSpec, Reception
from .index import SpatialGridIndex
from .location import LocationService
from .messages import MIXED_TAGS, Message, RoundBatch, wire_size
from .mobility import (
    LinearMobility,
    MobilityModel,
    OrbitMobility,
    RandomWaypointMobility,
    StaticMobility,
    WaypointMobility,
)
from .node import Crash, CrashPoint, CrashSchedule, Ensemble, Process
from .simulator import RoundObserver, Simulator
from .trace import RoundRecord, Trace, canonical_dump

__all__ = [
    "Adversary",
    "Channel",
    "ComposedAdversary",
    "Crash",
    "CrashPoint",
    "CrashSchedule",
    "Ensemble",
    "LinearMobility",
    "LocationService",
    "MIXED_TAGS",
    "Message",
    "MobilityModel",
    "NoAdversary",
    "NoiseBurstAdversary",
    "OrbitMobility",
    "PartitionAdversary",
    "Process",
    "RadioSpec",
    "RandomLossAdversary",
    "RandomWaypointMobility",
    "Reception",
    "RoundBatch",
    "RoundObserver",
    "RoundRecord",
    "ScriptedAdversary",
    "Simulator",
    "SpatialGridIndex",
    "StaticMobility",
    "TargetedDropAdversary",
    "Trace",
    "WaypointMobility",
    "WindowAdversary",
    "canonical_dump",
    "wire_size",
]
