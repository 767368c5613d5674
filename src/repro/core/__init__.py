"""The paper's core contribution: convergent history agreement (CHAP)."""

from .ballot import Ballot, BallotPayload, VetoPayload, canonical_key
from .cha import (
    CHAEnsemble,
    CHAProcess,
    ChaCore,
    PHASE_BALLOT,
    PHASE_VETO1,
    PHASE_VETO2,
    ROUNDS_PER_INSTANCE,
    calculate_history_reference,
)
from .checkpoint import (
    CheckpointCHAProcess,
    CheckpointChaCore,
    CheckpointOutput,
)
from .history import EMPTY_HISTORY, History, HistoryChain
from .slotted import SlottedChaCore, SlottedCheckpointChaCore
from .spec import (
    check_agreement,
    check_all,
    check_liveness,
    check_validity,
    find_liveness_point,
)

__all__ = [
    "Ballot",
    "BallotPayload",
    "CHAEnsemble",
    "CHAProcess",
    "ChaCore",
    "CheckpointCHAProcess",
    "CheckpointChaCore",
    "CheckpointOutput",
    "EMPTY_HISTORY",
    "History",
    "HistoryChain",
    "PHASE_BALLOT",
    "PHASE_VETO1",
    "PHASE_VETO2",
    "ROUNDS_PER_INSTANCE",
    "SlottedChaCore",
    "SlottedCheckpointChaCore",
    "VetoPayload",
    "calculate_history_reference",
    "canonical_key",
    "check_agreement",
    "check_all",
    "check_liveness",
    "check_validity",
    "find_liveness_point",
]
