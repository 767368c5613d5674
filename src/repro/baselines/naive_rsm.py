"""The naive replicated-state machine: full history in every message.

Section 3.4: "a naïve solution might include the entire history in every
message".  This baseline is *correct* — it is CHAP with the entire
computed history embedded in each ballot (which is how classical RSM
implementations ship state to lagging replicas and joiners) — but its
wire messages grow linearly with the execution, violating exactly the
property Theorem 14 buys.  Experiment E2 plots the two side by side.

Because the protocol logic is inherited unchanged from CHAP, the outputs
of a naive ensemble are *identical* to a CHAP ensemble run under the same
environment, which the test-suite asserts; the baselines differ only on
the wire.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..core.ballot import Ballot, BallotPayload
from ..core.cha import CHAProcess
from ..types import Instance, Value


@dataclass(frozen=True)
class NaiveBallotPayload(BallotPayload):
    """A ballot dragging the proposer's entire decided history behind it.

    Subclasses :class:`BallotPayload` so receivers process it through the
    ordinary CHAP path; ``history_entries`` is pure wire weight (and what
    a classical RSM would let a joiner catch up from).
    """

    history_entries: tuple[tuple[Instance, Value], ...] = ()


class NaiveRSMProcess(CHAProcess):
    """CHAP with naive full-history ballots."""

    def _ballot_payload(self, value: Value) -> Any:
        core = self.core
        history = core.current_history()
        return NaiveBallotPayload(
            tag=core.tag,
            instance=core.k,
            ballot=Ballot(value, core.prev_instance),
            # Repacked pair-by-pair so the wire encoding is structure-
            # canonical: chain-backed histories share entry tuples across
            # outputs, and leaking that sharing onto the wire would make
            # otherwise-identical traces pickle differently.
            history_entries=tuple((k, v) for k, v in history.items()),
        )
