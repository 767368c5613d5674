"""Shared helpers for the ``*_differential`` suites.

A differential test runs one world under several corners (most often
:class:`Switches` values) and compares what each run reads, with
:func:`assert_corners_agree`.  The switches always travel in the spec
(``spec.switches``) — the one spelling — never through the runner's
``instrument`` hook.  The worlds are in ``_worlds.py``.
"""

from __future__ import annotations

import dataclasses
import itertools
import pickle

from repro.experiment.runner import run
from repro.service import ProposalLedger
from repro.switches import Switches


def corners(*axes: str, **fixed) -> list[Switches]:
    """Every on/off corner of the named boolean axes.

    Axes not named stay at their defaults unless ``fixed`` pins them
    (``corners("engine", "channel", history=True)``).  The all-off corner
    comes first, the all-on corner last.
    """
    return [Switches(**fixed, **dict(zip(axes, bits)))
            for bits in itertools.product((False, True), repeat=len(axes))]


#: Every (engine, channel) corner, the production stack first.
MODES = corners("engine", "channel")
MODE_IDS = ["default", "ref-channel", "ref-engine", "ref-both"]


def run_with(spec, switches: Switches, **run_kwargs):
    """``repro.run`` of ``spec`` under ``switches``."""
    return run(dataclasses.replace(spec, switches=switches), **run_kwargs)


def materialised(outputs):
    """Per-node output logs as plain lists.  The slotted cores hand out
    live views that pickle through ``list(...)``'s reduce form;
    byte-identity between switch corners is defined on ``list(log)``."""
    if outputs is None:
        return None
    return {node: list(log) for node, log in outputs.items()}


def observables(result) -> bytes:
    """Pickle of everything observable about a result: trace, outputs,
    proposals, metrics, invariant verdicts, and violation contexts."""
    return pickle.dumps((result.trace, materialised(result.outputs),
                         result.proposals, result.metrics, result.invariants,
                         result.violation_context))


def _run_switched(spec_factory, switches: Switches):
    return run_with(spec_factory(), switches)


def assert_corners_agree(spec_factory, corners, *, run=_run_switched,
                         read=observables):
    """Run one world once per corner and assert that every read equals
    the first corner's (the anchor's).

    ``run(spec_factory, corner)`` is one run: by default a fresh
    ``spec_factory()`` (an adversary carries RNG state, so no two runs
    share a spec) under the :class:`Switches` ``corner``.
    """
    anchor, *others = corners
    want = read(run(spec_factory, anchor))
    for corner in others:
        assert read(run(spec_factory, corner)) == want, corner


def replay(spec_factory, schedule) -> bytes:
    """The observables of the batch run equivalent to a served world:
    ``spec_factory()`` with the accepted proposal ``schedule`` replayed."""
    spec = spec_factory().override(
        protocol__proposer_factory=ProposalLedger.scripted(schedule))
    return observables(run(spec))
