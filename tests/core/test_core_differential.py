"""Differential verification of the slotted protocol core and the
history engines.

The CHA-family hot state lives in flat parallel arrays
(:mod:`repro.core.slotted`) behind the ``core`` reference switch, and
each output log is an interned incremental chain behind the ``history``
switch (the seed re-walking fold is the twin).  This suite is the
regression gate for both: for every protocol family (plain, checkpoint,
the two-phase ablation, the naive full-history RSM) and the VI
emulation, the pickled observables of a faulty run — the full wire
trace, every node's output log, proposals, metrics and invariant
verdicts — must be byte-for-byte identical across the **full switch
matrix**, core × history engine × simulation engine (the engine switch
also flips the channel), against the all-reference corner.  The naive
RSM puts the *entire computed history* in every ballot, so there the
history engines differ on the wire, not just in outputs.

Marked ``core_differential`` so PR CI can run just this gate quickly
(``pytest -m core_differential``).
"""

from __future__ import annotations

import dataclasses

import pytest
from _switches import assert_corners_agree, corners, observables, run_with
from _worlds import ENVIRONMENTS, VI_METRICS, cluster_spec, vi_spec

from repro.core import ChaCore, CheckpointChaCore
from repro.core.slotted import SlottedChaCore, SlottedCheckpointChaCore
from repro.experiment import MetricsSpec
from repro.net import Crash, CrashPoint, CrashSchedule
from repro.switches import Switches

pytestmark = [pytest.mark.fast, pytest.mark.core_differential]


def _cluster(family, **kwargs):
    def make():
        return cluster_spec(family, **ENVIRONMENTS["windowed-loss+crash"](),
                            **kwargs)
    return make


def _vi():
    return vi_spec(8, metrics=VI_METRICS, crashes=CrashSchedule(
        [Crash(1, 40, CrashPoint.AFTER_SEND)]))


_AGREEMENT = ("validity", "agreement")

SPECS = {
    "cha": _cluster("cha", n=6, rcf=24, instances=14, metrics=MetricsSpec(
        metrics=("decided_instances", "bottom_rate"), invariants=_AGREEMENT)),
    "checkpoint-cha": _cluster(
        "checkpoint-cha", n=5, rcf=18, instances=14, metrics=MetricsSpec(
            metrics=("decided_instances",),
            invariants=("lemma5", "prev_pointer"))),
    "two-phase-cha": _cluster(
        "two-phase-cha", n=5, rcf=12, instances=14, metrics=MetricsSpec(
            metrics=("decided_instances",), invariants=_AGREEMENT)),
    "naive-rsm": _cluster(
        "naive-rsm", n=5, rcf=12, instances=12, metrics=MetricsSpec(
            metrics=("max_message_size",), invariants=_AGREEMENT)),
    "vi": _vi,
}

#: Every (core, history, engine) corner, the engine switch flipping the
#: channel with it; the all-reference corner is the anchor.
CORNERS = [dataclasses.replace(s, channel=s.engine)
           for s in reversed(corners("core", "history", "engine"))]


@pytest.mark.parametrize("name", sorted(SPECS))
def test_core_switch_byte_identical_full_matrix(name):
    """All eight switch corners produce byte-identical observables."""
    assert_corners_agree(SPECS[name], CORNERS)


def test_trace_free_run_matches_traced_run_and_reference_core():
    """``keep_trace`` decides only whether a trace is recorded: a
    trace-free slotted run produces the exact observables of the
    reference core's, and of its own traced run, trace aside."""
    def trace_free(core_ref, keep_trace=False):
        spec = dataclasses.replace(SPECS["cha"](), keep_trace=keep_trace)
        result = run_with(spec, Switches(core=core_ref))
        assert (result.trace is None) is not keep_trace
        return observables(dataclasses.replace(result, trace=None))

    assert trace_free(False) == trace_free(True)
    assert trace_free(False) == trace_free(False, keep_trace=True)


@pytest.mark.parametrize("switches", [Switches(), Switches(core=True),
                                      Switches(history=True)],
                         ids=["default", "reference-core",
                              "reference-history"])
def test_spec_switches_reach_every_core(switches):
    """The spec's ``core`` switch pins each constructed core's class
    (the slotted core by default) and its ``history`` switch each core's
    fold, on every cluster family and every VI replica."""
    plain, checkpoint = ((ChaCore, CheckpointChaCore) if switches.core else
                         (SlottedChaCore, SlottedCheckpointChaCore))
    for name, cls in (("cha", plain), ("two-phase-cha", plain),
                      ("checkpoint-cha", checkpoint), ("vi", checkpoint)):
        spec = dataclasses.replace(SPECS[name](), keep_trace=False)
        processes = run_with(spec, switches).processes.values()
        if name == "vi":
            cores = [dev.replica.core for dev in processes
                     if dev.replica is not None]
        else:
            cores = [proc.core for proc in processes]
        assert cores
        assert all(type(core) is cls for core in cores), name
        assert all(core.reference_history is switches.history
                   for core in cores), name
