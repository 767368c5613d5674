"""Shared helpers for the ``*_differential`` suites.

A differential test runs one spec under several :class:`Switches`
values and compares pickled observables.  The switches always travel in
the spec (``spec.switches``) — the one spelling — never through the
runner's ``instrument`` hook.
"""

from __future__ import annotations

import dataclasses
import itertools
import pickle

from repro.experiment.runner import run
from repro.switches import Switches


def corners(*axes: str, **fixed) -> list[Switches]:
    """Every on/off corner of the named boolean axes.

    Axes not named stay at their defaults unless ``fixed`` pins them
    (``corners("engine", "channel", history=True)``).  The all-off corner
    comes first, the all-on corner last.
    """
    return [Switches(**fixed, **dict(zip(axes, bits)))
            for bits in itertools.product((False, True), repeat=len(axes))]


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
