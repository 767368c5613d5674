"""Checkpoint-CHA: the garbage-collected variant of Section 3.5.

Plain CHAP keeps every ballot and status entry forever (local state grows
with the execution, even though *messages* stay constant size).  Section
3.5 observes that a node may garbage-collect whenever an instance is
designated **green**: by Lemma 5 every other node then designates it good,
so every future ``prev-instance`` chain stays at or above it and the
entries below can be folded into a checkpoint.

A checkpoint is the application-level fold of the history up to and
including the green instance, produced by a caller-supplied ``reducer``
(for a virtual node, the reducer is the node's deterministic transition
function, so the checkpoint *is* the virtual-node state).  Outputs become
``(checkpoint, suffix)`` pairs — the "checkpoint-CHA" interface the paper
sketches.

Yellow instances never garbage-collect: a yellow node cannot rule out an
orange peer whose future ballots point below the yellow instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from ..switches import Switches
from ..types import BOTTOM, Color, Instance, NO_INSTANCE, Value
from .cha import CHAProcess, ChaCore, build_core
from .history import History

#: Folds ``(state, instance, value_or_bottom) -> state``.  Must be a pure
#: function of ``(state, k, value)``: the slotted core folds once per
#: cohort of lockstep nodes, whose members then share the state returned.
Reducer = Callable[[Any, Instance, Value], Any]


@dataclass(frozen=True)
class CheckpointOutput:
    """The checkpoint-CHA output: a fold plus the recent history suffix."""

    #: Instance up to (and including) which the checkpoint folds.
    checkpoint_instance: Instance
    #: Application state after folding instances ``1..checkpoint_instance``.
    checkpoint_state: Any
    #: Output history for the instances after the checkpoint.
    suffix: History

    def includes(self, k: Instance) -> bool:
        if k <= self.checkpoint_instance:
            return True  # folded instances are, by construction, decided
        return self.suffix.includes(k)


class CheckpointChaCore(ChaCore):
    """A :class:`ChaCore` that folds and discards below green instances."""

    def __init__(self, *, propose: Callable[[Instance], Value],
                 reducer: Reducer, initial_state: Any,
                 tag: Any = "cha",
                 switches: Switches = Switches()) -> None:
        super().__init__(propose=propose, tag=tag, switches=switches)
        self._reducer = reducer
        self.checkpoint_instance: Instance = NO_INSTANCE
        self.checkpoint_state: Any = initial_state

    # -- folding --------------------------------------------------------

    def _fold_to(self, green: Instance, history: History | None = None) -> None:
        """Advance the checkpoint to the green instance ``green``.

        ``history`` lets the caller reuse an already-computed fold of
        the current chain (it is, by definition, what
        :meth:`current_history` would return right now).
        """
        if history is None:
            history = self.current_history()
        state = self.checkpoint_state
        # One pass over the fold: ``history(k)`` walks from the tip, so
        # reading it per instance would be quadratic in the gap.
        at = dict(history.items())
        for k in range(self.checkpoint_instance + 1, green + 1):
            state = self._reducer(state, k, at.get(k, BOTTOM))
        self.checkpoint_state = state
        self.checkpoint_instance = green
        # Garbage-collect: keep only entries after the checkpoint.  The
        # ballot *at* the checkpoint must survive: it is the anchor that
        # future prev-instance chains terminate on.
        self.ballots = {
            k: b for k, b in self.ballots.items() if k >= green
        }
        self.status = {
            k: c for k, c in self.status.items() if k >= green
        }
        # Cached folds were anchored at the old checkpoint floor: their
        # chains still carry entries at or below the new one, so seeding
        # a floor-anchored fold from them would resurrect GC'd instances.
        # (restore()/reset_to() clear the cache for the same reason —
        # adopted ballots/anchors may disagree with locally cached
        # chains; the fold-count regression test pins all three paths.)
        self._fold_cache.clear()

    def step_end(self, veto_seen: bool, collision: bool) -> None:
        """End of instance: green instances fold-and-GC and log the
        ``(checkpoint, suffix)`` pair instead of a full history.

        Mirrors :meth:`ChaCore.step_end` (lines 36-45 of Figure 1) with
        the Section 3.5 output interface.
        """
        if veto_seen or collision:
            self.status[self.k] = min(Color.YELLOW, self.status[self.k])
        if self.status[self.k].is_good:
            self.prev_instance = self.k
        output: CheckpointOutput | None
        if self.status[self.k] is Color.GREEN:
            # One fold serves both the checkpoint advance and the output
            # derivation (the seed path re-folded the chain a second
            # time inside current_checkpoint_output, right after
            # _fold_to had discarded the fold cache).
            history = self.current_history()
            self._fold_to(self.k, history)
            output = self.current_checkpoint_output(history)
        else:
            output = BOTTOM
        self.outputs.append((self.k, output))

    # -- checkpointed view ----------------------------------------------

    def current_checkpoint_output(self, history: History | None = None) -> CheckpointOutput:
        """The (checkpoint, suffix) pair for the current chain.

        ``history`` is an optional already-computed fold of the current
        chain; passing it (as the green-instance path does) avoids
        re-folding the suffix the caller just derived.
        """
        if history is None:
            history = self.current_history()
        suffix_entries = {
            k: v for k, v in history.items() if k > self.checkpoint_instance
        }
        return CheckpointOutput(
            checkpoint_instance=self.checkpoint_instance,
            checkpoint_state=self.checkpoint_state,
            suffix=History(history.length, suffix_entries),
        )

    # -- state transfer ---------------------------------------------------

    def snapshot(self) -> dict:
        """Snapshot including the checkpoint fields (join-protocol acks)."""
        snap = super().snapshot()
        snap["checkpoint_instance"] = self.checkpoint_instance
        snap["checkpoint_state"] = self.checkpoint_state
        return snap

    def restore(self, snapshot) -> None:
        super().restore(snapshot)
        self.checkpoint_instance = snapshot["checkpoint_instance"]
        self.checkpoint_state = snapshot["checkpoint_state"]

    def reset_to(self, instance: Instance, state: Any) -> None:
        """Re-anchor a fresh core at ``instance`` (the emulation's reset).

        Used when a joiner concludes the virtual node is dead: the node is
        reborn with ``state`` (normally the program's initial state) as a
        checkpoint at the current instance, with an empty suffix.
        """
        self.k = instance
        self.prev_instance = instance
        self.checkpoint_instance = instance
        self.checkpoint_state = state
        self.status = {}
        self.ballots = {}
        self._fold_cache = {}

    def current_history(self) -> History:
        """Chain reconstruction that stops at the checkpoint anchor.

        Below the checkpoint the ballots are gone; the chain, by the GC
        safety argument, never goes below it, so reconstruction walks only
        the retained suffix and reports bottom below the checkpoint (the
        folded prefix lives in ``checkpoint_state``).
        """
        if self.reference_history:
            entries: dict[Instance, Value] = {}
            k = self.k
            prev = self.prev_instance
            while k > self.checkpoint_instance:
                if k == prev:
                    ballot = self.ballots[k]
                    entries[k] = ballot.value
                    prev = ballot.prev_instance
                k -= 1
            return History(self.k, entries)
        return History._from_chain(self.k, self._fold_chain(
            self.k, self.prev_instance, floor=self.checkpoint_instance))

    def _missing_ballot(self, k: Instance) -> None:
        # The seed checkpoint walk indexes ballots directly, so a broken
        # chain surfaces as a KeyError rather than a ProtocolError.
        raise KeyError(k)


class CheckpointCHAProcess(CHAProcess):
    """Checkpoint-CHA on the canonical 3-round schedule."""

    def __init__(self, *, propose: Callable[[Instance], Value],
                 reducer: Reducer, initial_state: Any,
                 cm_name: str = "C", tag: Any = "cha",
                 start_round: int = 0,
                 switches: Switches = Switches()) -> None:
        self.core = build_core(
            propose=propose, reducer=reducer, initial_state=initial_state,
            tag=tag, switches=switches)
        self.cm_name = cm_name
        self.start_round = start_round

    @property
    def checkpoint(self) -> CheckpointOutput:
        return self.core.current_checkpoint_output()
